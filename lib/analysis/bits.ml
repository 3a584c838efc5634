(* Dense bitsets over a fixed universe [0, n), stored as an int array
   (Sys.int_size bits per word). The compile hot paths (liveness,
   interference, DCE) represent register sets this way: union into,
   membership and iteration are word-wise, so a transfer-function round
   costs O(n / word_size) instead of O(live * log live) with
   [Reg.Set]. *)

type t = int array

let bpw = Sys.int_size

let create n = Array.make ((n + bpw - 1) / bpw) 0

let mem (t : t) i = t.(i / bpw) land (1 lsl (i mod bpw)) <> 0

let add (t : t) i = t.(i / bpw) <- t.(i / bpw) lor (1 lsl (i mod bpw))

let remove (t : t) i = t.(i / bpw) <- t.(i / bpw) land lnot (1 lsl (i mod bpw))

let clear (t : t) = Array.fill t 0 (Array.length t) 0

(* A word loop: on the few-word sets of the hot paths it beats the
   [Array.blit] C call. *)
let copy_into ~(into : t) (src : t) =
  for w = 0 to Array.length src - 1 do
    into.(w) <- src.(w)
  done

(* [into := into ∪ src]; reports whether [into] grew. *)
let union_into ~(into : t) (src : t) : bool =
  let changed = ref false in
  for w = 0 to Array.length src - 1 do
    let v = into.(w) lor src.(w) in
    if v <> into.(w) then begin
      into.(w) <- v;
      changed := true
    end
  done;
  !changed

(* [into := into ∪ (src \ minus)]; reports whether [into] grew. *)
let union_diff_into ~(into : t) (src : t) (minus : t) : bool =
  let changed = ref false in
  for w = 0 to Array.length src - 1 do
    let v = into.(w) lor (src.(w) land lnot minus.(w)) in
    if v <> into.(w) then begin
      into.(w) <- v;
      changed := true
    end
  done;
  !changed

(* Number of trailing zeros of a word with exactly one bit set, by de
   Bruijn multiplication: [debruijn] is a 64-bit de Bruijn sequence
   B(2, 6) whose top six bits are zero, so for each of the word's bit
   positions the top six bits of [b * debruijn] (mod 2^63) are a
   different window of it. The table inverts that map; the index is
   always below 64. *)
let debruijn = 0x022fdd63cc95386d

let ntz_table =
  let t = Array.make 64 0 in
  for i = 0 to bpw - 1 do
    t.(((1 lsl i) * debruijn) lsr (bpw - 6)) <- i
  done;
  t

let ntz b = Array.unsafe_get ntz_table ((b * debruijn) lsr (bpw - 6))

(* Position of the lowest set bit of a nonzero word. *)
let lowest v = ntz (v land (-v))

(* Iterate set bits in ascending order. With the dense register
   numbering sorted by [Reg.Ord], ascending bit order coincides with
   [Reg.Set] iteration order. *)
let iter f (t : t) =
  for w = 0 to Array.length t - 1 do
    let v = ref t.(w) in
    while !v <> 0 do
      f ((w * bpw) + lowest !v);
      v := !v land (!v - 1)
    done
  done

let first (t : t) =
  let n = Array.length t in
  let rec go w =
    if w >= n then -1 else if t.(w) = 0 then go (w + 1) else (w * bpw) + lowest t.(w)
  in
  go 0

(* Positions by descending priority, ascending position on ties, and
   the inverse map. *)
let rank (prio : int array) =
  let order = Array.init (Array.length prio) Fun.id in
  Array.sort (fun a b -> if prio.(a) <> prio.(b) then Int.compare prio.(b) prio.(a) else a - b) order;
  let rank_of = Array.make (Array.length prio) 0 in
  Array.iteri (fun r k -> rank_of.(k) <- r) order;
  (order, rank_of)
