(** Graph pattern preserving compression (paper Sec 4, Theorem 4).

    [compress] is the compression function [R]: hypernodes are the classes
    of the maximum bisimulation [Rb]; a hypernode keeps the (shared) label
    of its members; [( [v], [w] )] is an edge as soon as some member edge
    crosses (algorithm [compressB], Fig 7 — no edge reduction here, unlike
    the reachability scheme).

    The query rewriting function [F] is the identity: any pattern query
    runs on [Gr] as is.  The post-processing function [P] replaces each
    matched hypernode by its members ({!Compressed.expand_result},
    O(|V|/63 + |output|) per row; {!write_row} on the daemon's path);
    Boolean pattern queries skip [P]. *)

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

(** [answer p c] evaluates pattern [p] on the compressed graph
    ({!Bounded_sim.match_into} on a fresh scratch) and expands each row
    through [P] ({!Compressed.expand_into}): equals
    [Bounded_sim.eval p g] on the original graph (Theorem 4). *)
val answer : Pattern.t -> Compressed.t -> Pattern.result

(** {1 Answering into reused scratch}

    The daemon's path: match on [Gr] into reused candidate bitsets
    ({!Bounded_sim.match_into}), count each row, then write each reply
    row straight out of the match.  Every hypernode matched for pattern
    node [u] carries [fv(u)], so row [u] is the nodes of [V] whose
    hypernode has label [fv(u)] and is matched: {!write_row} scans that
    label's block of [V], kept in label-major order
    ({!Bitset.write_selected}), or, when the block is much longer than
    the row, expands the match into a bitset over [V]
    ({!Compressed.expand_into}, {!Bitset.write_u32_le}). *)

(** The match's candidate bitsets over [Gr], the row lengths, [V] in
    label-major order (built on the first pattern answered: 8 bytes a
    node) and one bitset over [V] (made on the first row that expands),
    kept from query to query; they grow to the widest pattern met.  Not
    safe to share between domains. *)
type scratch

val scratch : Compressed.t -> scratch

(** [answer_into s p] evaluates [p] on [Gr] and counts each row of its
    expansion through [P]; [true] iff every pattern node has a match,
    exactly when {!answer} is [Some].  Rows [u < Pattern.node_count p]
    are then {!row_length} and {!write_row}, until the next call.
    Allocates nothing once [s] has met a pattern as wide and a bound-1
    pattern.  Like {!Bounded_sim.scratch}, [s] keeps room for at most
    [max np Bounded_sim.steady_sets] pattern nodes after a query on
    [np] of them. *)
val answer_into : scratch -> Pattern.t -> bool

(** [row_length s u] is the number of original nodes matching pattern
    node [u] in the last answer. *)
val row_length : scratch -> int -> int

(** [write_row s u b pos] writes those nodes in increasing order as u32
    little-endian values into [b] from [pos], [4 * row_length s u]
    bytes, and returns the position after them.  Allocates nothing once
    the bitset over [V] exists.
    @raise Invalid_argument if they do not fit in [b]. *)
val write_row : scratch -> int -> Bytes.t -> int -> int

(** [scans s u] is whether {!write_row} [s u] scans the label's block:
    when the block holds at most three times the row's length plus
    twice [|V| / 63], the words of a bitset over [V]. *)
val scans : scratch -> int -> bool

(** [answer_boolean p c] decides [Qp ⊨ G] directly on [Gr]; no
    post-processing involved. *)
val answer_boolean : Pattern.t -> Compressed.t -> bool

(** [answer_rpq r c] evaluates a regular path query (the paper's Sec 7
    future work, see {!Rpq}) on the compressed graph and expands the
    answer: the sorted original nodes with an outgoing path spelling a word
    in [L(r)].  Exact, because a node's outgoing label-path language is a
    bisimulation invariant. *)
val answer_rpq : Rpq.t -> Compressed.t -> int array
