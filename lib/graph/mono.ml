(* Monomorphic replacements for the polymorphic-compare stdlib entry
   points that qpgc-lint's POLY02 bans from hot-path modules.

   [Stdlib.min]/[max] and friends dispatch through the generic
   [caml_compare] runtime walk on every call (they are ordinary
   polymorphic functions, never specialised), and polymorphic [Hashtbl]s
   hash and compare keys the same way.  Everything here is typed, so the
   compiler emits direct integer / float / string operations instead. *)

let imin (a : int) (b : int) = if a <= b then a else b
let imax (a : int) (b : int) = if a >= b then a else b
let icompare (a : int) (b : int) = if a < b then -1 else if a > b then 1 else 0

(* FNV-1a over the bytes of a string: monomorphic, allocation-free and --
   unlike [Hashtbl.hash] -- stable across OCaml versions, so anything
   seeded from it (dataset RNGs, bucket layouts) is reproducible. *)
let fnv1a (s : string) =
  (* 64-bit FNV offset basis truncated to OCaml's 63-bit int. *)
  let h = ref 0x4bf29ce484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h land max_int

(* Multiplicative mixing (Knuth) so strided key patterns -- node ids
   sampled every k, (u, v) edge pairs -- still spread across buckets. *)
let mix_int (x : int) = (x * 0x9E3779B1) land max_int

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) (b : int) = a = b
  let hash = mix_int
end)

module Ptbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : int * int) ((c, d) : int * int) = a = c && b = d
  let hash (a, b) = ((a * 0x9E3779B1) lxor b) land max_int
end)

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = fnv1a
end)
