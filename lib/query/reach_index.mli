(** Reachability index layer over a (compressed) graph.

    The paper's promise is that [Gr] is an ordinary graph, so the classic
    reachability indexes — interval tree covers, 2-hop labelings, GRAIL —
    build over the compressR output unchanged.  Because [Gr] is a small DAG
    (plus self-loops on cyclic classes), construction that is quadratic or
    worse on [G] becomes cheap on [Gr], and the index answers {e original}
    graph queries through the node → hypernode map: rewrite
    [QR(u, v) ↦ QR(R(u), R(v))], answer on the index, and resolve two
    distinct originals inside one hypernode through the hypernode's
    self-loop — exactly {!Compress_reach.answer}'s semantics, with the
    per-query BFS replaced by an O(log) / O(label) lookup.

    An index also builds directly over [G] (no [node_map]); the
    compression step is what keeps it small. *)

type algorithm =
  | Tree_cover  (** interval tree cover: exact, O(log) query, no fallback *)
  | Two_hop  (** pruned 2-hop labeling: exact, O(|label|) merge-intersection *)
  | Grail  (** GRAIL: O(k) interval test with a pruned-DFS fallback *)

val all_algorithms : algorithm list

(** [algorithm_name a] is the stable CLI / snapshot name ([tree-cover],
    [two-hop], [grail]). *)
val algorithm_name : algorithm -> string

type t

(** [build ?pool ?algorithm ?node_map g] indexes [g] (default
    {!Tree_cover}).  [g] is whatever graph the queries rewrite onto: the
    compressR output together with its [node_map] ([R : V → Vr], see
    {!Compress_reach.index}), or an original graph with [node_map] omitted
    (identity).  Construction with parallelisable parts (GRAIL's
    traversals) fans out over [?pool].
    @raise Invalid_argument when [node_map] mentions a node outside [g]. *)
val build :
  ?pool:Pool.t -> ?algorithm:algorithm -> ?node_map:int array -> Digraph.t -> t

(** [query t ~source ~target] answers [QR(source, target)] on the
    {e original} graph (reflexive), with original node ids.  Constant-ish
    time: a map lookup plus one index probe; no traversal of [G]. *)
val query : t -> source:int -> target:int -> bool

(** [answer t source target] is {!query} without the
    [reach_index.queries] count, for a batch loop that counts its slice
    once with {!count_queries}. *)
val answer : t -> int -> int -> bool

(** [count_queries k] adds [k] to [reach_index.queries]. *)
val count_queries : int -> unit

(** [query_into t ~src ~dst ~off ~len out] answers the slice
    [off .. off+len-1] of the id columns into the same bytes of [out]
    (a {!Reach_query.flat_eval}), counting the slice once in
    [reach_index.queries].  Queries are independent, so a multi-domain
    [?pool] (default {!Pool.default}) evaluates them concurrently with
    answers identical to sequential.
    @raise Invalid_argument when the slice leaves a column or [out]. *)
val query_into :
  ?pool:Pool.t -> t -> src:int array -> dst:int array -> off:int -> len:int ->
  Bytes.t -> unit

val algorithm : t -> algorithm

(** [indexed_n t] is the node count of the indexed graph ([|Vr|] when built
    over a compression). *)
val indexed_n : t -> int

(** [original_n t] is the number of original nodes the index answers for
    (equals {!indexed_n} for identity-mapped indexes). *)
val original_n : t -> int

(** [memory_bytes t] is the resident size: backend index + node map +
    self-loop bits — the figure the acceptance gate compares against the
    CSR graph itself. *)
val memory_bytes : t -> int

(** {1 Representation access (serialization)}

    Everything below exists for {!Reach_index_io}; treat the returned
    arrays as read-only. *)

type backend =
  | Tree of Tree_cover.t
  | Hop of Two_hop.t
  | Grl of Grail.t

val backend : t -> backend

(** [node_map t] is [R] when the index answers through a compression,
    [None] for identity-mapped indexes. *)
val node_map : t -> int array option

(** [self_loops t] marks the indexed nodes carrying a self-loop. *)
val self_loops : t -> Bitset.t

(** [v ~graph_n ?node_map ~self_loops ~backend ()] reassembles an index
    from snapshot parts.  @raise Invalid_argument when the parts disagree
    on sizes or a map entry is out of range. *)
val v :
  graph_n:int ->
  ?node_map:int array ->
  self_loops:Bitset.t ->
  backend:backend ->
  unit ->
  t
