(** Graph traversals: BFS, DFS, bidirectional BFS.

    These are the stock algorithms the paper runs unmodified on both the
    original graph [G] and the compressed graph [Gr] (Exp-2): query preserving
    compression promises that any evaluation algorithm works on [Gr] as is. *)

(** [bfs_reaches g u v] is [true] iff there is a path (possibly empty) from
    [u] to [v]: reflexive reachability via forward breadth-first search. *)
val bfs_reaches : Digraph.t -> int -> int -> bool

(** [bfs_reaches_nonempty g u v] is [true] iff there is a {e nonempty} path
    from [u] to [v]; differs from {!bfs_reaches} only when [u = v], where it
    requires a cycle through [u]. *)
val bfs_reaches_nonempty : Digraph.t -> int -> int -> bool

(** [bibfs_reaches g u v] is reflexive reachability via bidirectional BFS
    over flat array frontiers, each round expanding whichever side's
    frontier has the smaller degree sum, and stopping as soon as either
    search exhausts; functionally identical to {!bfs_reaches}. *)
val bibfs_reaches : Digraph.t -> int -> int -> bool

(** [dfs_reaches g u v] is reflexive reachability via iterative DFS. *)
val dfs_reaches : Digraph.t -> int -> int -> bool

(** [descendants g u] is the set of nodes reachable from [u] by a nonempty
    path. *)
val descendants : Digraph.t -> int -> Bitset.t

(** {1 Multi-source backward search} *)

(** Work space for {!ancestors}: a FIFO of node ids, reused from call to
    call. *)
type queue

(** [queue n] is a queue for graphs of at most [n] nodes. *)
val queue : int -> queue

(** [ancestors ?depth g q sources ~into] sets [into] to the nodes with a
    nonempty path of at most [depth] edges (of any length without
    [depth]) into a member of [sources]: one backward BFS over the
    in-CSR from all of [sources] at once, whose first level is their
    predecessors.  A source is marked only when such a path leaves it,
    as any other node: a cycle through it, or a path into another
    source.  O(|V|/63 + |V| + |E|), with nothing allocated on the flat
    store; a mapped or varint graph materialises its in-CSR once
    ({!Digraph.in_csr}).
    @raise Invalid_argument if [depth < 0], if [q] was made for fewer
    than [Digraph.n g] nodes, if [sources] or [into] has another
    universe size, or if [into] is [sources]. *)
val ancestors :
  ?depth:int -> Digraph.t -> queue -> Bitset.t -> into:Bitset.t -> unit

(** [bfs_order g roots] is all nodes reachable from [roots] (inclusive) in
    BFS discovery order. *)
val bfs_order : Digraph.t -> int list -> int list

(** [distance g u v] is the length of the shortest path from [u] to [v]
    ([Some 0] when [u = v]), or [None] if unreachable. *)
val distance : Digraph.t -> int -> int -> int option

(** [budgeted_reaches g u v ~budget] decides nonempty-path reachability
    while expanding at most [budget] nodes: [Some r] when the search settled
    the answer within budget, [None] when it ran out.  Used by incremental
    compression to detect redundant updates cheaply. *)
val budgeted_reaches : Digraph.t -> int -> int -> budget:int -> bool option
