(** Bounded simulation matching (Fan et al. [9]): algorithm [Match] of the
    paper's experiments.

    The answer to [Qp] in [G] is the unique maximum match [SM] (Lemma 1):
    the largest relation [S ⊆ Vp × V] where matched nodes agree on labels
    and every pattern edge [(u,u')] with bound [k] (or [*]) is realised by a
    nonempty path of length ≤ k (or any length) to a matched node.

    Computed as a greatest-fixpoint refinement of label-based candidate
    sets.  cand(u) starts as the nodes labelled [fv(u)]; when their ids
    are one contiguous range, as every label's are on a [Gr] built by
    [Compress_bisim], whole words are set at once.  An acyclic pattern
    is refined in one pass, each pattern node pruned once with its
    children first ({!Pattern.topo_node}); a pattern with a cycle or a
    self-loop repeats passes until nothing changes.  Each pruning step
    takes one pattern edge [(u, u')]: a bound-1 edge keeps the
    candidates of [u] with a successor in cand(u'), scanning the
    out-CSR and loading cand(u')'s words only for successors between
    its lowest and highest member; a bound k or [*] edge keeps those
    that one backward BFS from cand(u') marks within k levels (any
    number for [*]), {!Traversal.ancestors}.  That is O(|V| + |E|) time
    and one bitset and one queue of space per graph, whatever the bound.
    The answer does not depend on how the graph's nodes are numbered.

    {!eval}, {!refine} and {!match_into} share one kernel: the fixpoint
    prunes the candidate bitsets in place, and only {!eval} and
    {!refine} then copy the rows out into arrays.

    {!match_into} alone adds the graph's successor-label filter
    ({!Digraph.succ_labelled}): per label l, the nodes with a successor
    labelled l, built once per graph on first use and shared by every
    scratch over it.  A bound-1 edge [(u, u')] first intersects cand(u)
    with the set of fv(u'), one AND per word.  While cand(u') still
    holds every node labelled fv(u') — always for a pattern sink, and
    for any node that none of its own edges has pruned yet in this
    query — that AND is the whole step; otherwise the successor scan
    runs on what it kept.  A label no node carries, negative included,
    empties cand(u) as the empty cand(u') would.  The filter is not
    built when its [label_count * ceil(n / 63)] words would exceed the
    out-CSR's [n + m + 1]; bound-1 edges then take the scan alone.
    {!eval} and {!refine} keep the scan, so that they stay an oracle
    independent of the filter: {!Inc_match} and the tests run them. *)

(** [eval p g] is the maximum match of [p] in [g] ([None] when some
    pattern node has no match). *)
val eval : Pattern.t -> Digraph.t -> Pattern.result

(** [eval_boolean p g] decides [Qp ⊨ G] (Boolean pattern queries,
    Sec 2.1): [true] iff the maximum match is nonempty on every pattern
    node. *)
val eval_boolean : Pattern.t -> Digraph.t -> bool

(** [eval_matrix p g] is a second, independent implementation of the same
    maximum match, following the cubic-time formulation of [9] directly: an
    all-pairs bounded-distance matrix (per-source BFS), then the removal
    fixpoint with O(1) distance tests.  O(|V|²) memory — fine for test
    oracles and small graphs, which is what it is for. *)
val eval_matrix : Pattern.t -> Digraph.t -> Pattern.result

(** [label_candidates p g] is, per pattern node [u], the bitset of data
    nodes labelled [fv(u)], read from the label index
    ({!Digraph.label_ids}): the starting sets of {!eval}. *)
val label_candidates : Pattern.t -> Digraph.t -> Bitset.t array

(** [refine p g ~cand] runs the removal fixpoint starting from the
    given candidate bitsets (one per pattern node) instead of the label
    sets.  Starting sets must over-approximate the true maximum match, which
    they do for: label sets (fresh evaluation), a previous maximum match
    after edge deletions, or any union of the two.  Mutates [cand] in place
    and returns the result.  This is the entry point {!Inc_match} builds
    on. *)
val refine : Pattern.t -> Digraph.t -> cand:Bitset.t array -> Pattern.result

(** {1 Matching into reused bitsets} *)

(** Candidate bitsets over one data graph, and the bitset and queue of
    the backward search, kept from query to query: a server evaluating
    many patterns allocates nothing per query, per candidate or per row.
    Not safe to share between domains. *)
type scratch

(** [scratch g] is an empty scratch over [g].  It grows to the widest
    pattern it meets; a query on a pattern of [np] nodes first drops
    the sets past [max np steady_sets], so that one wide pattern does
    not pin its memory.  Once it has met the widest of a stream of
    patterns of up to [steady_sets] nodes, it allocates nothing more. *)
val scratch : Digraph.t -> scratch

(** The pattern nodes a scratch keeps room for between queries: 64. *)
val steady_sets : int

(** [match_into s p] computes the maximum match of [p] in the
    scratch's graph, leaving each pattern node's row in {!matched}.
    [true] iff every pattern node has a match: [eval] returns [Some] of
    the same rows exactly then. *)
val match_into : scratch -> Pattern.t -> bool

(** [matched s u] is pattern node [u]'s row after the last
    {!match_into}, for [u < Pattern.node_count p].  It is overwritten by
    the next call. *)
val matched : scratch -> int -> Bitset.t
