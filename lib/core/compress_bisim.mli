(** Graph pattern preserving compression (paper Sec 4, Theorem 4).

    [compress] is the compression function [R]: hypernodes are the classes
    of the maximum bisimulation [Rb]; a hypernode keeps the (shared) label
    of its members; [( [v], [w] )] is an edge as soon as some member edge
    crosses (algorithm [compressB], Fig 7 — no edge reduction here, unlike
    the reachability scheme).

    The query rewriting function [F] is the identity: any pattern query
    runs on [Gr] as is.  The post-processing function [P] replaces each
    matched hypernode by its members ({!Compressed.expand_result}),
    O(|V|/63 + |output|) per row; Boolean pattern queries skip [P]. *)

(** [compress ?pool g] computes [Gr = R(G)] in O(|E| log |V|) via
    Paige–Tarjan on the flat refinement engine; [pool] parallelises the
    initial pre-split (bit-identical for any domain count). *)
val compress : ?pool:Pool.t -> Digraph.t -> Compressed.t

(** [compress_of_partition g assignment] builds [Gr] from a given stable
    partition (shared with the incremental layer).  The assignment must be
    a bisimulation partition; [compress] guarantees the {e maximum} one.

    Hypernodes are numbered in ascending label order, and within one
    label by the first member in [V]: [Digraph.label] is non-decreasing
    in hypernode id, so the hypernodes of each label form one id range
    of [Gr], the starting candidate set of a pattern node there
    ({!Bounded_sim}).  [Gr] is {!Digraph.quotient} of [g] by those ids,
    self-loops kept.  O(|V| + |E| + L) for [L] labels. *)
val compress_of_partition : Digraph.t -> int array -> Compressed.t

(** [answer p c] evaluates pattern [p] on the compressed graph with
    the stock {!Bounded_sim.eval} and expands the result through [P]:
    equals [Bounded_sim.eval p g] on the original graph (Theorem 4). *)
val answer : Pattern.t -> Compressed.t -> Pattern.result

(** {1 Answering into reused scratch}

    The daemon's path: match on [Gr] into reused candidate bitsets
    ({!Bounded_sim.match_into}), then run [P] into reused bitsets over
    [V], from which each reply row is written straight out
    ({!Bitset.write_u32_le}).  {!answer} is the same kernel with the
    rows copied out into arrays. *)

(** Candidate bitsets over [Gr] and answer rows over [V], kept from
    query to query; they grow to the widest pattern met.  Not safe to
    share between domains. *)
type scratch

val scratch : Compressed.t -> scratch

(** [answer_into s p] evaluates [p] on [Gr] and expands the match
    through [P] into [s]; [true] iff every pattern node has a match,
    exactly when {!answer} is [Some].  Row [u < Pattern.node_count p] is
    then {!row} [s u], until the next call. *)
val answer_into : scratch -> Pattern.t -> bool

(** [row s u] is the original nodes matching pattern node [u] in the
    last answer, as a bitset over [V]. *)
val row : scratch -> int -> Bitset.t

(** [answer_boolean p c] decides [Qp ⊨ G] directly on [Gr]; no
    post-processing involved. *)
val answer_boolean : Pattern.t -> Compressed.t -> bool

(** [answer_regular p c] evaluates a regular pattern query (pattern edges
    carrying regular expressions, the other Sec 7 direction — see
    {!Regular_pattern}) on the compressed graph and expands the result
    through [P]: equals [Regular_pattern.eval p g] on the original graph.
    The witness conditions consult only label paths, which bisimulation
    quotients preserve exactly. *)
val answer_regular : Regular_pattern.t -> Compressed.t -> Pattern.result

(** [answer_rpq r c] evaluates a regular path query (the paper's Sec 7
    future work, see {!Rpq}) on the compressed graph and expands the
    answer: the sorted original nodes with an outgoing path spelling a word
    in [L(r)].  Exact, because a node's outgoing label-path language is a
    bisimulation invariant. *)
val answer_rpq : Rpq.t -> Compressed.t -> int array
