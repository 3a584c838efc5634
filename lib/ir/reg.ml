(* Virtual registers. The simulated processor has an unbounded register
   file (paper Section 3.1); physical registers only exist as a
   measurement made by the allocator. *)

type cls = Int | Float

type t = { id : int; cls : cls }

type gen = { mutable next : int }

let make_gen () = { next = 1 }

let fresh gen cls =
  let id = gen.next in
  gen.next <- gen.next + 1;
  { id; cls }

let gen_count gen = gen.next

let cls_rank = function Int -> 0 | Float -> 1

(* Id first, then class (Int < Float): the order of the tuple compare
   [Stdlib.compare (id, cls)], without allocating or calling it. *)
let compare a b =
  if a.id <> b.id then Int.compare a.id b.id
  else Int.compare (cls_rank a.cls) (cls_rank b.cls)

let equal a b = a.id = b.id && a.cls = b.cls

let hash a = (a.id * 2) + cls_rank a.cls

let cls_to_string = function Int -> "i" | Float -> "f"

let to_string r = Printf.sprintf "r%d%s" r.id (cls_to_string r.cls)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
