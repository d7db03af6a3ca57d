(** GRAIL reachability index (Yildirim, Chaoji & Zaki [34]) — one of the
    index baselines the paper's related-work section positions query
    preserving compression against.

    Each node gets [k] interval labels from [k] randomized post-order
    traversals of the condensation DAG: the label of [v] in traversal [i]
    is [\[low_i(v), post_i(v)\]] where [low_i] is the minimum post rank in
    [v]'s reachable set.  [u ⇝ v] implies containment in every traversal;
    containment without reachability is possible, so a positive test falls
    back to a pruned DFS.  Construction is O(k·(|V| + |E|)), storage
    O(k·|V|) — the "quadratic or worse" costs of 2-hop/PathTree are what
    GRAIL (and compression) avoid.

    Like every evaluator here, GRAIL runs on compressed graphs unchanged —
    compression and indexing compose; {!Reach_index} builds it over the
    compressR output. *)

type t

(** [build ?pool ?traversals ?seed g] constructs the index ([traversals]
    defaults to 3).  Each traversal labels from its own deterministically
    seeded stream, so the traversals fan out over [?pool] (default
    {!Pool.default}) with output identical for every domain count. *)
val build : ?pool:Pool.t -> ?traversals:int -> ?seed:int -> Digraph.t -> t

(** [query t u v] answers [QR(u, v)] (reflexive). *)
val query : t -> int -> int -> bool

(** [memory_bytes t] estimates the index size: 2·k ints per condensation
    node plus the SCC map. *)
val memory_bytes : t -> int

(** [fallbacks t] counts queries so far that could not be answered from
    intervals alone and needed the DFS fallback; exposed so benchmarks and
    the {!Planner} can estimate the pruning power.  Also surfaced as the
    [grail.fallbacks] {!Obs} counter.  The count is atomic, so it is
    exact under a concurrent [Reach_index.query_into] too. *)
val fallbacks : t -> int

(** {1 Representation access (serialization)}

    The index decomposes into the SCC map, the condensation DAG, and the
    per-traversal interval labelings; {!Reach_index_io} snapshots exactly
    these parts. *)

(** [of_parts ~comp ~cond ~intervals] reassembles an index from its parts.
    @raise Invalid_argument if [comp] mentions a condensation node outside
    [cond], if [intervals] is empty, or if some labeling's length differs
    from [Digraph.n cond]. *)
val of_parts :
  comp:int array ->
  cond:Digraph.t ->
  intervals:(int * int) array array ->
  t

(** [comp t] is the indexed-node → condensation-node map (do not mutate). *)
val comp : t -> int array

(** [cond t] is the condensation DAG the intervals label. *)
val cond : t -> Digraph.t

(** [intervals t] is the per-traversal labeling (do not mutate). *)
val intervals : t -> (int * int) array array
