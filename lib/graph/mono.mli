(** Monomorphic replacements for polymorphic-compare stdlib entry points.

    qpgc-lint's POLY02 bans [Stdlib.min]/[max], a [compare] passed as a
    value at a structured type, [Hashtbl.hash] and the generic
    [Hashtbl.create] from hot-path modules; these are the drop-in typed
    versions the diagnostics point at.  All are direct machine
    comparisons -- no [caml_compare] walk. *)

val imin : int -> int -> int
val imax : int -> int -> int

(** [icompare] is [Int.compare]: a branchy direct comparison, safe to pass
    first-class (e.g. to [Array.sort]) without boxing a polymorphic
    primitive. *)
val icompare : int -> int -> int

(** FNV-1a over a string's bytes: stable across OCaml versions (unlike
    [Hashtbl.hash]), so seeds and layouts derived from it are
    reproducible.  Result is non-negative. *)
val fnv1a : string -> int

(** Multiplicative (Knuth) mix for int keys. Non-negative. *)
val mix_int : int -> int

(** Keyed hash tables with monomorphic hash/equal. *)

module Itbl : Hashtbl.S with type key = int

module Ptbl : Hashtbl.S with type key = int * int

module Stbl : Hashtbl.S with type key = string
