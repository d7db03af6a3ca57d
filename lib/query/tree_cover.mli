(** Tree-cover reachability index (Agrawal, Borgida & Jagadish) — the
    classic interval-labeling scheme behind PathTree-style indexes the
    paper's related work discusses.

    Over the condensation DAG, a spanning forest gets post-order intervals;
    each node then holds a minimal set of intervals covering everything it
    reaches: its own tree interval merged with its successors' sets,
    propagated in reverse topological order.  [u ⇝ v] iff [v]'s post rank
    falls inside one of [u]'s intervals — a binary search, no fallback.
    The sets live in two flat int arrays, row offsets and interleaved
    [lo, hi] pairs, and the search takes no branch that depends on the
    data.

    Exact, O(log) query time; worst-case index size O(|V|²) (dense DAGs),
    which is precisely the cost profile that makes compression attractive:
    build the same index over [Gr] instead and both the size and the build
    time shrink with it. *)

type t

(** [build g] constructs the index. *)
val build : Digraph.t -> t

(** [query t u v] answers [QR(u, v)] (reflexive): a lower-bound search
    for [v]'s post rank in [u]'s row, O(log) in the row length. *)
val query : t -> int -> int -> bool

(** [interval_count t] is the total number of stored intervals. *)
val interval_count : t -> int

(** [memory_bytes t] is the footprint of the four arrays the index holds
    (interval pairs, row offsets, post ranks, component map), 8 bytes a
    word. *)
val memory_bytes : t -> int

(** {1 Representation access (serialization)}

    The index decomposes into the SCC map, the post ranks, and the
    per-condensation-node interval rows; {!Reach_index_io} snapshots
    exactly these parts. *)

(** [of_parts ~comp ~post ~offsets ~pairs] reassembles an index from its
    parts.  @raise Invalid_argument unless [comp] maps into the [k]
    condensation nodes, [post] is a permutation of [\[0, k)], [offsets]
    holds [k + 1] row starts from 0 to the interval count of [pairs], and
    each row is nonempty, strictly ascending and disjoint
    ([lo <= hi < next lo]), within [\[0, k)], and holds its own post
    rank — the invariants {!query}'s search relies on. *)
val of_parts :
  comp:int array -> post:int array -> offsets:int array -> pairs:int array -> t

(** [comp t] is the indexed-node → condensation-node map (do not mutate). *)
val comp : t -> int array

(** [post t] is the post rank per condensation node (do not mutate). *)
val post : t -> int array

(** [offsets t] holds the [k + 1] row starts: condensation node [c]'s
    intervals are [offsets.(c) .. offsets.(c + 1) - 1] (do not mutate). *)
val offsets : t -> int array

(** [pairs t] is every row back to back, interval [i] at [2i] (lo) and
    [2i + 1] (hi) (do not mutate). *)
val pairs : t -> int array
