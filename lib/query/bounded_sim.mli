(** Bounded simulation matching (Fan et al. [9]): algorithm [Match] of the
    paper's experiments.

    The answer to [Qp] in [G] is the unique maximum match [SM] (Lemma 1):
    the largest relation [S ⊆ Vp × V] where matched nodes agree on labels
    and every pattern edge [(u,u')] with bound [k] (or [*]) is realised by a
    nonempty path of length ≤ k (or any length) to a matched node.

    Computed as a greatest-fixpoint refinement of label-based candidate
    sets.  An acyclic pattern is refined in one pass, each pattern node
    pruned once with its children first; a pattern with a cycle or a
    self-loop repeats passes until nothing changes.  A bound-1 test scans
    the candidate's successors in the out-CSR; a bound k or [*] test
    uses memoised descendant bitsets per (node, bound), kept across
    queries only by a caller that passes the same {!cache}.  The daemon
    passes none, so each of its queries with a bound above 1 builds its
    sets afresh.

    {!eval}, {!refine} and {!match_into} share one kernel: the fixpoint
    prunes the candidate bitsets in place, and only {!eval} and
    {!refine} then copy the rows out into arrays. *)

(** Memoised reachability state for one data graph. *)
type cache

(** [make_cache g] creates an empty cache tied to [g].  Bitsets are
    materialised lazily, per distinct bound actually used. *)
val make_cache : Digraph.t -> cache

(** [eval ?cache p g] is the maximum match of [p] in [g] ([None] when some
    pattern node has no match).  Passing a [cache] built on [g] amortises
    reachability across evaluations; a cache built on another graph is
    rejected with [Invalid_argument]. *)
val eval : ?cache:cache -> Pattern.t -> Digraph.t -> Pattern.result

(** [eval_boolean ?cache p g] decides [Qp ⊨ G] (Boolean pattern queries,
    Sec 2.1): [true] iff the maximum match is nonempty on every pattern
    node. *)
val eval_boolean : ?cache:cache -> Pattern.t -> Digraph.t -> bool

(** [eval_matrix p g] is a second, independent implementation of the same
    maximum match, following the cubic-time formulation of [9] directly: an
    all-pairs bounded-distance matrix (per-source BFS), then the removal
    fixpoint with O(1) distance tests.  O(|V|²) memory — fine for test
    oracles and small graphs, which is what it is for. *)
val eval_matrix : Pattern.t -> Digraph.t -> Pattern.result

(** [label_candidates p g] is, per pattern node [u], the bitset of data
    nodes labelled [fv(u)], read from {!Digraph.label_slice}: the
    starting sets of {!eval}. *)
val label_candidates : Pattern.t -> Digraph.t -> Bitset.t array

(** [refine ?cache p g ~cand] runs the removal fixpoint starting from the
    given candidate bitsets (one per pattern node) instead of the label
    sets.  Starting sets must over-approximate the true maximum match, which
    they do for: label sets (fresh evaluation), a previous maximum match
    after edge deletions, or any union of the two.  Mutates [cand] in place
    and returns the result.  This is the entry point {!Inc_match} builds
    on. *)
val refine : ?cache:cache -> Pattern.t -> Digraph.t -> cand:Bitset.t array -> Pattern.result

(** {1 Matching into reused bitsets} *)

(** Candidate bitsets over one data graph, kept from query to query: a
    server evaluating many patterns allocates none per candidate or per
    row.  Not safe to share between domains. *)
type scratch

(** [scratch g] is an empty scratch over [g]; it grows to the widest
    pattern it meets. *)
val scratch : Digraph.t -> scratch

(** [match_into ?cache s p] computes the maximum match of [p] in the
    scratch's graph, leaving each pattern node's row in {!matched}.
    [true] iff every pattern node has a match: [eval] returns [Some] of
    the same rows exactly then. *)
val match_into : ?cache:cache -> scratch -> Pattern.t -> bool

(** [matched s u] is pattern node [u]'s row after the last
    {!match_into}, for [u < Pattern.node_count p].  It is overwritten by
    the next call. *)
val matched : scratch -> int -> Bitset.t
