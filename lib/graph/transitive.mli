(** Transitive closure and reduction.

    - Descendant bitsets implement the nonempty-path reachability closure
      used by reachability equivalence (Sec 3.1) and by pattern edges with
      bound [*] (Sec 2.1).
    - The unique transitive reduction of a DAG implements the "no redundant
      edges" rule of algorithm [compressR] (Fig 5, lines 6-8).
    - [aho_reduction] is the AHO baseline [1] of Table 1: substitute a simple
      cycle for each SCC and transitively reduce the condensation.

    Every function takes [?pool]; with a multi-domain {!Pool.t} the
    per-source propagation runs in parallel (by topological level over the
    condensation, then per node), producing bit-identical sets.  The
    default is {!Pool.default}, which is sequential unless a front end
    opted in. *)

(** [descendant_sets g] gives, for each node [v], the set of nodes reachable
    from [v] by a nonempty path ([v] itself included iff [v] lies on a
    cycle).  Computed bottom-up over the condensation; O(|V|·|E|/w) worst
    case. *)
val descendant_sets : ?pool:Pool.t -> Digraph.t -> Bitset.t array

(** [reduction_dag dag] is the unique transitive reduction of an acyclic
    graph: the minimal subgraph with the same reachability relation.  Edge
    [(u,v)] is kept iff no other successor of [u] reaches [v].  Each node's
    successors are visited nearest first (descending SCC id) against one
    [covered] set: a successor already covered is redundant, otherwise it
    is kept and its descendant set is folded in — O(deg·|V|/63) per node
    over the SCC-level descendant sets, with no node-level copy.
    @raise Invalid_argument if [dag] has a cycle. *)
val reduction_dag : ?pool:Pool.t -> Digraph.t -> Digraph.t

(** [aho_reduction g] is the transitive reduction of a general digraph after
    Aho, Garey & Ullman: each nontrivial SCC is replaced by a simple cycle
    over its members, and the condensation is transitively reduced, with each
    cross edge reattached to one representative per SCC.  Node set and
    reachability are preserved; edge count is minimised up to the SCC-cycle
    convention. *)
val aho_reduction : ?pool:Pool.t -> Digraph.t -> Digraph.t

(** [closure_matrix g] is the full reflexive-free closure as an adjacency
    check: [fun u v -> true] iff nonempty path [u ⇝ v].  Backed by
    {!descendant_sets}. *)
val closure_matrix : ?pool:Pool.t -> Digraph.t -> int -> int -> bool
