(* The 40 loop nests of the paper's Table 2, as synthetic mini-Fortran
   kernels. Each kernel is a source file, table2/NAME.f, embedded at
   build time (the private module [Corpus]) and parsed here, so the
   suite reaches the compiler exactly as [impactc run-file] does. The
   table below holds the published characteristics of each innermost
   loop: source-line count (approximately), average iteration count,
   nesting depth, KAP classification and presence of conditionals.
   Iteration counts above [sim_cap] are capped for simulation (steady
   state is reached within a few iterations, so speedups are insensitive
   to the cap); each file's innermost loops run [sim_iters] times, so a
   change to the cap means regenerating the files. *)

type ltype = Doall | Doacross | Serial

let ltype_to_string = function
  | Doall -> "doall"
  | Doacross -> "doacross"
  | Serial -> "serial"

type t = {
  name : string;
  origin : string;  (* PERFECT | SPEC | VECTOR *)
  size : int;  (* paper: FORTRAN lines in the innermost loop *)
  iters : int;  (* paper: average innermost iteration count *)
  sim_iters : int;  (* iteration count actually simulated *)
  nest : int;
  ltype : ltype;
  conds : bool;
  ast : Impact_fir.Ast.program;
}

let sim_cap = 512

(* name, origin, size, iters, nest, ltype, conds *)
let table =
  [
    ("APS-1", "PERFECT", 2, 64, 2, Doall, false);
    ("APS-2", "PERFECT", 8, 31, 2, Doall, false);
    ("APS-3", "PERFECT", 2, 776, 1, Doall, false);
    ("CSS-1", "PERFECT", 6, 67, 1, Serial, true);
    ("LWS-1", "PERFECT", 2, 343, 2, Serial, false);
    ("LWS-2", "PERFECT", 1, 3087, 2, Serial, false);
    ("MTS-1", "PERFECT", 2, 423, 2, Serial, true);
    ("MTS-2", "PERFECT", 2, 24, 3, Serial, true);
    ("NAS-1", "PERFECT", 22, 1500, 1, Doall, false);
    ("NAS-2", "PERFECT", 5, 1520, 1, Doall, false);
    ("NAS-3", "PERFECT", 6, 6000, 1, Doall, false);
    ("NAS-4", "PERFECT", 2, 1204, 1, Serial, false);
    ("NAS-5", "PERFECT", 71, 1500, 2, Serial, false);
    ("NAS-6", "PERFECT", 24, 635, 2, Doacross, false);
    ("SDS-1", "PERFECT", 1, 25, 2, Serial, false);
    ("SDS-2", "PERFECT", 1, 32, 3, Serial, false);
    ("SDS-3", "PERFECT", 1, 25, 2, Serial, false);
    ("SDS-4", "PERFECT", 3, 25, 2, Doacross, false);
    ("SRS-1", "PERFECT", 3, 287, 1, Doall, false);
    ("SRS-2", "PERFECT", 5, 287, 2, Doacross, false);
    ("SRS-3", "PERFECT", 1, 287, 2, Doall, false);
    ("SRS-4", "PERFECT", 9, 87, 3, Doall, false);
    ("SRS-5", "PERFECT", 21, 287, 2, Doall, false);
    ("SRS-6", "PERFECT", 1, 287, 2, Serial, false);
    ("TFS-1", "PERFECT", 11, 89, 2, Doall, false);
    ("TFS-2", "PERFECT", 7, 120, 2, Doacross, false);
    ("TFS-3", "PERFECT", 2, 49, 3, Doall, false);
    ("WSS-1", "PERFECT", 1, 96, 2, Doall, false);
    ("WSS-2", "PERFECT", 4, 39, 2, Doacross, false);
    ("doduc-1", "SPEC", 38, 13, 1, Serial, true);
    ("matrix300-1", "SPEC", 1, 300, 1, Doall, false);
    ("nasa7-1", "SPEC", 1, 256, 3, Doall, false);
    ("nasa7-2", "SPEC", 3, 1000, 3, Doacross, false);
    ("tomcatv-1", "SPEC", 21, 255, 2, Doall, false);
    ("tomcatv-2", "SPEC", 8, 255, 2, Serial, true);
    ("add", "VECTOR", 1, 1024, 1, Doall, false);
    ("dotprod", "VECTOR", 1, 1024, 1, Serial, false);
    ("maxval", "VECTOR", 3, 1024, 1, Serial, true);
    ("merge", "VECTOR", 4, 1024, 1, Doall, true);
    ("sum", "VECTOR", 1, 1024, 1, Serial, false);
  ]

let all : t list =
  List.map
    (fun (name, origin, size, iters, nest, ltype, conds) ->
      let source =
        match List.assoc_opt name Corpus.files with
        | Some s -> s
        | None -> invalid_arg ("Suite: no table2/" ^ name ^ ".f")
      in
      let ast =
        try Impact_fir.Parse.parse_program source
        with Impact_fir.Parse.Parse_error msg -> failwith (name ^ ".f: " ^ msg)
      in
      { name; origin; size; iters; sim_iters = min iters sim_cap; nest; ltype; conds; ast })
    table

(* Alternate names accepted by the command-line tools. *)
let aliases = [ ("vecadd", "add") ]

let find name =
  let name = Option.value ~default:name (List.assoc_opt name aliases) in
  List.find_opt (fun w -> w.name = name) all
