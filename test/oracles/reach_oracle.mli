(** The naive oracle for the reachability equivalence {!Reach_equiv}, which
    only the tests run.  Structural hash keys are the right tool here; none
    of this is on a served path. *)

(** [ancestor_sets g] is, for each node [v], the set of nodes that reach
    [v] by a nonempty path: {!Transitive.descendant_sets} on the reversed
    graph. *)
val ancestor_sets : Digraph.t -> Bitset.t array

(** [compute_naive g] computes the partition of {!Reach_equiv.compute}
    directly from the per-node ancestor/descendant sets of {!Transitive} —
    O(|V|²) space. *)
val compute_naive : Digraph.t -> Reach_equiv.t

(** [group_by_signature keys] groups equal keys into dense classes in order
    of first appearance, returning (class per item, class count) — 0 classes
    for an empty array. *)
val group_by_signature : 'a array -> int array * int
