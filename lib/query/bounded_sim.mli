(** Bounded simulation matching (Fan et al. [9]): algorithm [Match] of the
    paper's experiments.

    The answer to [Qp] in [G] is the unique maximum match [SM] (Lemma 1):
    the largest relation [S ⊆ Vp × V] where matched nodes agree on labels
    and every pattern edge [(u,u')] with bound [k] (or [*]) is realised by a
    nonempty path of length ≤ k (or any length) to a matched node.

    Computed as a greatest-fixpoint refinement of label-based candidate
    sets.  An acyclic pattern is refined in one pass, each pattern node
    pruned once with its children first; a pattern with a cycle or a
    self-loop repeats passes until nothing changes.  Path tests use memoised descendant bitsets per (node, bound),
    shareable across queries on the same graph via {!cache}. *)

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
