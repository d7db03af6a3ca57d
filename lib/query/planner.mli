(** Adaptive reachability query planner.

    [Reach_query] evaluates every query with whatever algorithm the caller
    names; the planner picks for them.  [create] inspects the graph once —
    size, DAG-ness, and the reachability density sampled through GRAIL's
    fallback rate — and commits to an engine; [eval] then adds per-query
    O(1) short-circuits (reflexive hits, dead sources / unreachable
    targets) in front of it.  [eval_into] amortises that one planning
    pass across an arbitrarily large batch, which is where the
    compress-then-index pipeline earns its orders of magnitude.

    Every routing decision increments a [planner.route.<engine>] counter
    (plus [planner.route.trivial] for the short-circuits), so [--metrics]
    shows the realised mix. *)

type route =
  | Bfs  (** tiny graph: plain BFS beats any setup cost *)
  | Bibfs  (** fallback-heavy labeling: bidirectional search wins *)
  | Index  (** caller-supplied {!Reach_index.t}: always preferred *)
  | Grail_fallback  (** sampled GRAIL labeling kept as the engine *)

val route_name : route -> string

(** What [create] measured; [None] fields were not needed for the
    decision (e.g. nothing is sampled when an index is supplied). *)
type stats = {
  nodes : int;
  edges : int;
  is_dag : bool option;
  grail_fallback_rate : float option;  (** fallbacks / sampled queries *)
}

type t

(** [create ?pool ?index ?seed ?samples g] plans for queries over [g].
    With [?index] (built by {!Reach_index.build} / loaded from a
    snapshot) the planner routes everything to it.  Otherwise it builds a
    trial GRAIL labeling (over [?pool]), samples [?samples] seeded random
    pairs, and keeps the labeling as the engine iff the fallback rate
    stayed low — else it routes to bidirectional BFS.  Deterministic for
    fixed [seed]. *)
val create :
  ?pool:Pool.t -> ?index:Reach_index.t -> ?seed:int -> ?samples:int ->
  Digraph.t -> t

(** [route t] is the committed engine. *)
val route : t -> route

val stats : t -> stats

(** [describe t] is a one-line human summary of the decision, for
    [--planner] CLI output. *)
val describe : t -> string

(** [eval t ~source ~target] answers the reflexive reachability query
    through the committed engine. *)
val eval : t -> source:int -> target:int -> bool

(** [eval_into t ~src ~dst ~off ~len out] answers the slice
    [off .. off+len-1] of the id columns into the same bytes of [out] (a
    {!Reach_query.flat_eval}) over [?pool] (default {!Pool.default}),
    identical to sequential and to {!eval} per query.  The route
    counters move once per pool chunk, not per query.
    @raise Invalid_argument when the slice leaves a column or [out]. *)
val eval_into :
  ?pool:Pool.t -> t -> src:int array -> dst:int array -> off:int -> len:int ->
  Bytes.t -> unit
