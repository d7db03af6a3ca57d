(** Maximum bisimulation equivalence (paper Sec 4.1).

    A bisimulation on [G = (V,E,L)] is a binary relation [B] with, for each
    [(u,v) ∈ B]: equal labels, every child of [u] matched by a child of [v]
    in [B], and vice versa.  The unique maximum bisimulation [Rb] is an
    equivalence relation (Lemma 5); its classes are the hypernodes of the
    pattern preserving compression. *)

(** [max_bisimulation ?pool g] is the partition of [V] into [Rb]-classes, one
    dense block id per node, computed by Paige–Tarjan in O(|E| log |V|) on
    the flat refinable-partition engine.  [pool] parallelises the initial
    pre-split (bit-identical for any domain count). *)
val max_bisimulation : ?pool:Pool.t -> Digraph.t -> int array

(** [is_stable_partition g assignment] checks the defining property directly:
    members of a block share their label and their set of successor blocks.
    The maximum bisimulation is the coarsest assignment passing this test. *)
val is_stable_partition : Digraph.t -> int array -> bool

(** [bisimilar g u v] whether [(u,v) ∈ Rb]; convenience over
    {!max_bisimulation} for tests and examples. *)
val bisimilar : Digraph.t -> int -> int -> bool
