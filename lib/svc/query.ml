open Impact_ir
open Impact_core

type t = {
  q_subject : string;
  q_level : Level.t;
  q_machine : Machine.t;
  q_opts : Opts.t;
}

(* 2: the machine gained the [core] axis (inorder vs. out-of-order),
   which is rendered into the canonical string below; entries written at
   version 1 read as stale misses and are recomputed. *)
let format_version = 2

(* The AST cannot be marshaled (array initializers are closures), so the
   content fingerprint is taken over the deterministic lowering: the
   pretty-printed program text plus every array's evaluated contents
   (floats in lossless [%h] form) and the output map. [Lower.lower] is a
   pure function of the AST, so equal sources digest equally and any
   source edit lands in the text, the data, or both. *)
let subject_digest ast =
  let p = Impact_fir.Lower.lower ast in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Pp.prog_to_string p);
  List.iter
    (fun (a : Prog.adecl) ->
      Buffer.add_string buf
        (Printf.sprintf ".data %s %s %d:" a.Prog.aname
           (Reg.cls_to_string a.Prog.acls) a.Prog.asize);
      (match a.Prog.ainit with
      | Prog.IInit xs ->
        Array.iter (fun x -> Buffer.add_string buf (string_of_int x ^ ",")) xs
      | Prog.FInit xs ->
        Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf "%h," x)) xs);
      Buffer.add_char buf '\n')
    p.Prog.arrays;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let make ~subject ~opts level machine =
  { q_subject = subject; q_level = level; q_machine = machine; q_opts = opts }

let to_string q =
  Printf.sprintf "impact-query/%d subj=%s level=%s machine=%s/%d/%d/%s %s"
    format_version q.q_subject
    (Level.to_string q.q_level)
    q.q_machine.Machine.name q.q_machine.Machine.issue
    q.q_machine.Machine.branch_slots
    (Machine.core_to_string q.q_machine.Machine.core)
    (Opts.to_string q.q_opts)

let digest q = Digest.to_hex (Digest.string (to_string q))
