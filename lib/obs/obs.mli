(** Observability facade: monotonic timing, spans, per-domain metrics,
    Chrome-trace / Prometheus export.

    Instrumentation sites call {!span}, {!incr}, {!add}, {!observe};
    front ends flip the switches and export.  Everything is a near-no-op
    while the switches are off (one atomic load + branch per site), so
    the kernels stay instrumented unconditionally. *)

module Clock = Obs_clock
module Metrics = Obs_metrics
module Trace = Obs_trace

(** Structured leveled logging ({!Obs_log}), the slow-query flight
    recorder ({!Obs_ring}) and sliding-window metric views
    ({!Obs_window}) — the live-telemetry additions the daemon builds
    on. *)
module Log = Obs_log

module Ring = Obs_ring
module Window = Obs_window

(** [time f] = {!Obs_clock.time}: run [f] and return (result, seconds).
    Always measures, regardless of the switches — it replaces ad-hoc
    [Unix.gettimeofday] deltas in the CLI / bench front ends. *)
val time : (unit -> 'a) -> 'a * float

(** {1 Switches} *)

val metrics_on : unit -> bool

(** [enabled ()] — is either tracing or metrics on?  For hoisting a
    whole instrumentation block out of a hot loop. *)
val enabled : unit -> bool

val set_tracing : bool -> unit
val set_metrics : bool -> unit

(** GC-delta sampling inside spans (off by default; needs tracing on to
    have any effect). *)
val set_gc_sampling : bool -> unit

(** {1 Spans} *)

(** [span name f] runs [f ()], recording a nested span when tracing is
    on.  Exception-safe; see {!Obs_trace.span}. *)
val span : string -> (unit -> 'a) -> 'a

(** Closure-free span form for hot loops where [span]'s closure would
    cost register allocation on captured locals even while tracing is
    off.  Must pair lexically; see {!Obs_trace.begin_span}. *)
val begin_span : string -> unit

val end_span : unit -> unit

(** {1 Metrics} *)

type counter = Obs_metrics.counter
type gauge = Obs_metrics.gauge
type histogram = Obs_metrics.histogram

val counter : string -> counter
val add : counter -> int -> unit
val incr : counter -> unit
val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val histogram : ?buckets:float array -> string -> histogram
val observe : histogram -> float -> unit

(** {1 Reading and export} *)

(** Drop all recorded spans and zero all metric slots.  Quiescent use
    only (tests, between bench runs). *)
val reset : unit -> unit

(** Chrome trace_event JSON of all recorded spans (Perfetto-loadable). *)
val chrome_trace : unit -> string

(** [write_trace path] writes {!chrome_trace} to [path]. *)
val write_trace : string -> unit

(** Total seconds per span name — the bench ["phases"] breakdown. *)
val phase_totals : unit -> (string * float) list

(** Prometheus text dump of the merged metric snapshot. *)
val prometheus : unit -> string

(** Aligned human-readable table of the merged metric snapshot. *)
val metrics_table : unit -> string
