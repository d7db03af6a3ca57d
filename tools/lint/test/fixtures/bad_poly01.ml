(* POLY01's cases, checked by POLY02 in a hot-path module. *)

let sort_ids (a : int array) = Array.sort compare a
(* line 3: clean -- compare escapes at int, compiled to compare_ints *)

let widest xs = List.fold_left max 0 xs
(* line 6: max escapes (and is polymorphic even applied) *)

let clamp lo x = min lo x
(* line 9: min applied -- still flagged, never specialised *)

let seed_of name = Hashtbl.hash name
(* line 12: Hashtbl.hash *)

let partial_cmp x = compare x
(* line 15: partial application escapes at 'a *)

let sort_pairs (a : (int * int) array) = Array.sort compare a
(* line 18: compare escapes at int * int, a caml_compare call per test *)

(* Not flagged: direct full applications specialise at known types, and a
   local monomorphic rebinding shadows the polymorphic one. *)
let direct_eq (a : int) (b : int) = a = b && a <> b + 1

let compare (a : int) (b : int) = if a < b then -1 else if a > b then 1 else 0
let uses_shadowed (a : int array) = Array.sort compare a
