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

(** [max_bisimulation_naive g] computes the same partition by iterated
    signature refinement (quadratic worst case).  Kept as the independent
    test oracle for {!max_bisimulation}. *)
val max_bisimulation_naive : Digraph.t -> int array

(** [max_bisimulation_ranked g] computes the same partition with the
    rank-stratified algorithm of Dovier, Piazza & Policriti [8] — the
    algorithm the paper actually cites for [compressB]: nodes are layered
    by the bisimulation rank [rb] (Sec 5.2), each layer is refined against
    the already-settled lower layers, and only the non-well-founded parts
    need a fixpoint.  Often faster than global refinement on deep acyclic
    structures; identical output by construction (and by test). *)
val max_bisimulation_ranked : Digraph.t -> int array

(** [refine_once g cur] performs one signature-refinement round: nodes stay
    together iff they share a block in [cur] and their successor-block sets
    agree.  One round from the label partition is 1-bisimulation; iterating
    to fixpoint is {!max_bisimulation_naive}.  Exposed for the A(k)-index
    oracle, [Kbisim] in [test/oracles]. *)
val refine_once : Digraph.t -> int array -> int array

(** [is_stable_partition g assignment] checks the defining property directly:
    members of a block share their label and their set of successor blocks.
    The maximum bisimulation is the coarsest assignment passing this test. *)
val is_stable_partition : Digraph.t -> int array -> bool

(** [bisimilar g u v] whether [(u,v) ∈ Rb]; convenience over
    {!max_bisimulation} for tests and examples. *)
val bisimilar : Digraph.t -> int -> int -> bool
