(** Independent oracles for the maximum bisimulation ({!Bisimulation}),
    which only the tests run: iterated signature refinement and the
    rank-stratified algorithm the paper cites.  Hash tables keyed by
    signatures are the right tool here; none of this is on a served path. *)

(** [max_bisimulation_naive g] is the partition of
    {!Bisimulation.max_bisimulation}, computed by iterated signature
    refinement (quadratic worst case). *)
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
    to fixpoint is {!max_bisimulation_naive}.  Used by the A(k)-index
    oracle, {!Kbisim}. *)
val refine_once : Digraph.t -> int array -> int array
