(* Facade over the observability subsystem — the only module the rest of
   the repo needs to touch. *)

module Clock = Obs_clock
module Metrics = Obs_metrics
module Trace = Obs_trace
module Log = Obs_log
module Ring = Obs_ring
module Window = Obs_window

let time = Obs_clock.time

(* Switches *)
let metrics_on = Obs_state.metrics
let enabled () = Obs_state.tracing () || Obs_state.metrics ()
let set_tracing = Obs_state.set_tracing
let set_metrics = Obs_state.set_metrics
let set_gc_sampling = Obs_state.set_gc_sampling

(* Spans *)
let span = Obs_trace.span
let begin_span = Obs_trace.begin_span
let end_span = Obs_trace.end_span

(* Metrics *)
type counter = Obs_metrics.counter
type gauge = Obs_metrics.gauge
type histogram = Obs_metrics.histogram

let counter = Obs_metrics.counter
let add = Obs_metrics.add
let incr = Obs_metrics.incr
let gauge = Obs_metrics.gauge
let set_gauge = Obs_metrics.set_gauge
let histogram ?buckets name = Obs_metrics.histogram ?buckets name
let observe = Obs_metrics.observe

(* Reading / export *)
let reset () =
  Obs_metrics.clear ();
  Obs_trace.clear ()

let chrome_trace = Obs_trace.to_chrome_json

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_trace ()))

let phase_totals = Obs_trace.phase_totals
let prometheus () = Obs_export.prometheus (Obs_metrics.snapshot ())
let metrics_table () = Obs_export.table (Obs_metrics.snapshot ())
