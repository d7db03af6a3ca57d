(** Per-domain metrics registry: counters, gauges, fixed-bucket histograms.

    Metric handles are registered once (typically at module init) and are
    plain dense ints, so a record site is an array write into the calling
    domain's private slot — pool workers never contend.  Readers merge the
    per-domain slots by summation at snapshot time.

    All record operations are gated on {!Obs_state.metrics}; disabled they
    cost one atomic load and one branch. *)

type counter
type gauge
type histogram

(** [counter name] registers (or re-looks-up) the counter [name].
    Re-registering an existing name with a different kind raises
    [Invalid_argument]. *)
val counter : string -> counter

val add : counter -> int -> unit
val incr : counter -> unit

val gauge : string -> gauge

(** [set_gauge g v] records [v] in the calling domain's slot, stamped
    with the monotonic clock; the merged value is last-writer-wins
    across domains (the set with the newest timestamp), so several
    domains may report the same gauge without double-counting. *)
val set_gauge : gauge -> float -> unit

(** Default histogram buckets: powers of two 1, 2, 4, ..., 65536. *)
val default_buckets : float array

(** [histogram ?buckets name] registers a histogram with the given
    strictly-increasing upper bucket bounds; observations above the last
    bound land in an implicit overflow bucket. *)
val histogram : ?buckets:float array -> string -> histogram

(** [observe h x] increments the bucket of [x] ([x <= bound] semantics)
    and adds [x] to the running sum. *)
val observe : histogram -> float -> unit

type value =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of { buckets : float array; counts : int array; sum : float }
      (** [counts] has [length buckets + 1] entries; the last is the
          overflow bucket. *)

(** [snapshot ()] merges every domain's slot and returns the metrics in
    registration order. *)
val snapshot : unit -> (string * value) list

(** [find name] is the merged value of the metric [name], or [None] when
    no such metric is registered — {!snapshot} for a single metric,
    without building the whole list. *)
val find : string -> value option

(** [quantile v q] estimates the [q]-quantile ([0.0 .. 1.0]) of a
    [Hist_v] from its bucket counts: the bucket where the cumulative
    count crosses [q * total], linearly interpolated between its bounds.
    Observations above the last bound report the last bound, even when
    the entire mass sits in the overflow bucket — never an extrapolation
    past it.  [None] for counters, gauges, histograms with no
    observations, and degenerate [Hist_v] values with an empty bucket
    array. *)
val quantile : value -> float -> float option

(** [clear ()] zeroes every slot.  Only safe when no other domain is
    recording (tests, between bench runs). *)
val clear : unit -> unit
