(* Text rendering of the paper's tables and figures. *)

let fmt = Printf.sprintf

let hr width = String.make width '-'

(* A distribution table: rows are bins, columns are levels. *)
let distribution_table ~title ~(labels : string list)
    (dist : (Level.t * int array) list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (title ^ "\n");
  let header =
    fmt "%-12s %s" "range"
      (String.concat " " (List.map (fun (l, _) -> fmt "%6s" (Level.to_string l)) dist))
  in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf (hr (String.length header) ^ "\n");
  List.iteri
    (fun k label ->
      Buffer.add_string buf (fmt "%-12s" label);
      List.iter (fun (_, counts) -> Buffer.add_string buf (fmt " %6d" counts.(k))) dist;
      Buffer.add_string buf "\n")
    labels;
  Buffer.contents buf

(* The level x issue evaluation matrix shares one machine list between
   the CLI, the bench harness, and the profiler so the three can never
   drift: the paper's Figure 4/5 sweep is issue 2/4/8 at each level. *)
let matrix_issues = [ 2; 4; 8 ]

let matrix_machines ?(core = Impact_ir.Machine.Inorder) () =
  List.map (fun issue -> Impact_ir.Machine.make ~core ~issue ()) matrix_issues

let table1 () : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Table 1: instruction latencies\n";
  List.iter
    (fun (name, lat) -> Buffer.add_string buf (fmt "  %-16s %d\n" name lat))
    Impact_ir.Machine.table1_rows;
  Buffer.contents buf
