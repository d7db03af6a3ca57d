(* Per-domain metrics registry.

   Metric definitions (name, kind, dense id) live in a global registry; the
   recorded values live in per-domain slots reached through domain-local
   storage.  A recording site therefore touches only its own domain's
   arrays — no locks, no contention, no cache-line ping-pong between pool
   workers — and readers merge the slots on demand.  Slots are appended to
   a global list the first time a domain records (the only locked path) and
   are never removed: a dead domain's slot keeps its tallies, which is
   exactly what a merge-by-sum wants.

   Kinds:
   - counters: monotone int sums (merge: sum over slots);
   - gauges: last-written float per domain, stamped with the monotonic
     clock (merge: last-writer-wins across slots — the write with the
     newest timestamp is the merged value);
   - histograms: fixed upper-bound buckets plus an overflow bucket, with a
     running sum of observations (merge: element-wise bucket sum; exact,
     order-independent — the qcheck suite pins merged-vs-sequential
     equality for domains 1/2/4). *)

type kind = Counter | Gauge | Hist of float array

type def = { id : int; name : string; kind : kind }

(* Immutable snapshot array swapped under [reg_lock]; recorders read it
   without the lock, so it is atomic.  Registration normally happens at
   module-init time, long before any worker domain exists. *)
let registry : def array Atomic.t = Atomic.make [||]
let reg_lock = Mutex.create ()

let defs () = Atomic.get registry

let find_def name =
  let d = defs () in
  let rec go i =
    if i >= Array.length d then None
    else if String.equal d.(i).name name then Some d.(i)
    else go (i + 1)
  in
  go 0

let same_kind a b =
  match (a, b) with
  | Counter, Counter | Gauge, Gauge -> true
  | Hist x, Hist y -> x = y
  | (Counter | Gauge | Hist _), _ -> false

let register name kind =
  Mutex.lock reg_lock;
  let r =
    match find_def name with
    | Some d -> if same_kind d.kind kind then Ok d else Error d
    | None ->
        let d = defs () in
        let def = { id = Array.length d; name; kind } in
        Atomic.set registry (Array.append d [| def |]);
        Ok def
  in
  Mutex.unlock reg_lock;
  match r with
  | Ok d -> d
  | Error _ ->
      invalid_arg
        (Printf.sprintf
           "Obs_metrics: metric %S re-registered with a different kind" name)

(* ------------------------------------------------------------------ *)
(* Per-domain slots *)

type slot = {
  dom : int;
  mutable counters : int array;  (* indexed by def id *)
  mutable gauges : float array;
  mutable gauge_set : bool array;
  mutable gauge_ts : int array;  (* monotonic ns of the last set *)
  mutable hist : int array array;  (* def id -> bucket counts, [||] = unused *)
  mutable hist_sum : float array;
}

let slots : slot list ref = ref []
let slots_lock = Mutex.create ()

let slot_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          dom = (Domain.self () :> int);
          counters = [||];
          gauges = [||];
          gauge_set = [||];
          gauge_ts = [||];
          hist = [||];
          hist_sum = [||];
        }
      in
      Mutex.lock slots_lock;
      slots := s :: !slots;
      Mutex.unlock slots_lock;
      s)

let cap () = Array.length (defs ())

let grow_int a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a n =
  let b = Array.make n 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bool a n =
  let b = Array.make n false in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_arr a n =
  let b = Array.make n [||] in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ------------------------------------------------------------------ *)
(* Recording.  Every entry is gated on the global metrics flag; the
   disabled path is one atomic load and one branch. *)

type counter = int

let counter name = (register name Counter).id

let add c k =
  if Obs_state.metrics () then begin
    let s = Domain.DLS.get slot_key in
    if c >= Array.length s.counters then s.counters <- grow_int s.counters (cap ());
    s.counters.(c) <- s.counters.(c) + k
  end

let incr c = add c 1

type gauge = int

let gauge name = (register name Gauge).id

let set_gauge g v =
  if Obs_state.metrics () then begin
    let s = Domain.DLS.get slot_key in
    if g >= Array.length s.gauges then begin
      s.gauges <- grow_float s.gauges (cap ());
      s.gauge_set <- grow_bool s.gauge_set (cap ());
      s.gauge_ts <- grow_int s.gauge_ts (cap ())
    end;
    s.gauges.(g) <- v;
    s.gauge_set.(g) <- true;
    s.gauge_ts.(g) <- Obs_clock.now_ns ()
  end

type histogram = int

(* Powers of two up to 64k: frontier sizes, block sizes, degree-like
   quantities all land usefully here. *)
let default_buckets =
  Array.init 17 (fun i -> float_of_int (1 lsl i))

let histogram ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then
    invalid_arg "Obs_metrics.histogram: empty bucket array";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Obs_metrics.histogram: buckets must be strictly increasing")
    buckets;
  (register name (Hist buckets)).id

let buckets_of h =
  match (defs ()).(h).kind with
  | Hist b -> b
  | Counter | Gauge -> invalid_arg "Obs_metrics: not a histogram"

let observe h x =
  if Obs_state.metrics () then begin
    let s = Domain.DLS.get slot_key in
    if h >= Array.length s.hist then begin
      s.hist <- grow_arr s.hist (cap ());
      s.hist_sum <- grow_float s.hist_sum (cap ())
    end;
    let buckets = buckets_of h in
    if Array.length s.hist.(h) = 0 then
      s.hist.(h) <- Array.make (Array.length buckets + 1) 0;
    let counts = s.hist.(h) in
    let nb = Array.length buckets in
    let i = ref 0 in
    while !i < nb && x > buckets.(!i) do
      Stdlib.incr i
    done;
    counts.(!i) <- counts.(!i) + 1;
    s.hist_sum.(h) <- s.hist_sum.(h) +. x
  end

(* ------------------------------------------------------------------ *)
(* Reading *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of { buckets : float array; counts : int array; sum : float }

let all_slots () =
  Mutex.lock slots_lock;
  let s = !slots in
  Mutex.unlock slots_lock;
  s

let value_in_slot (d : def) s =
  match d.kind with
  | Counter ->
      Counter_v (if d.id < Array.length s.counters then s.counters.(d.id) else 0)
  | Gauge ->
      Gauge_v
        (if d.id < Array.length s.gauges && s.gauge_set.(d.id) then
           s.gauges.(d.id)
         else 0.0)
  | Hist buckets ->
      let counts =
        if d.id < Array.length s.hist && Array.length s.hist.(d.id) > 0 then
          Array.copy s.hist.(d.id)
        else Array.make (Array.length buckets + 1) 0
      in
      let sum = if d.id < Array.length s.hist_sum then s.hist_sum.(d.id) else 0.0 in
      Hist_v { buckets; counts; sum }

(* Pairwise merge for additive kinds; gauges take the LWW path in
   [merged_value] instead and never reach this function. *)
let merge a b =
  match (a, b) with
  | Counter_v x, Counter_v y -> Counter_v (x + y)
  | Gauge_v _, Gauge_v y -> Gauge_v y
  | Hist_v x, Hist_v y ->
      Hist_v
        {
          buckets = x.buckets;
          counts = Array.mapi (fun i c -> c + y.counts.(i)) x.counts;
          sum = x.sum +. y.sum;
        }
  | (Counter_v _ | Gauge_v _ | Hist_v _), _ ->
      invalid_arg "Obs_metrics: kind mismatch in merge"

let zero (d : def) =
  match d.kind with
  | Counter -> Counter_v 0
  | Gauge -> Gauge_v 0.0
  | Hist buckets ->
      Hist_v { buckets; counts = Array.make (Array.length buckets + 1) 0; sum = 0.0 }

(* Gauges merge last-writer-wins: summing per-domain last values is
   meaningless once two domains set the same gauge (queue depth reported
   by several workers would double-count).  The newest timestamp wins;
   a same-ns tie (below clock resolution) is broken arbitrarily. *)
let merged_value (d : def) slots =
  match d.kind with
  | Gauge ->
      let best_ts = ref min_int and best = ref 0.0 in
      List.iter
        (fun s ->
          if
            d.id < Array.length s.gauges
            && s.gauge_set.(d.id)
            && s.gauge_ts.(d.id) >= !best_ts
          then begin
            best_ts := s.gauge_ts.(d.id);
            best := s.gauges.(d.id)
          end)
        slots;
      Gauge_v !best
  | Counter | Hist _ ->
      List.fold_left (fun acc s -> merge acc (value_in_slot d s)) (zero d) slots

let snapshot () =
  let slots = all_slots () in
  Array.to_list (defs ())
  |> List.map (fun d -> (d.name, merged_value d slots))

let find name =
  let d = defs () in
  let slots = all_slots () in
  let rec go i =
    if i >= Array.length d then None
    else if String.equal d.(i).name name then Some (merged_value d.(i) slots)
    else go (i + 1)
  in
  go 0

(* The cumulative count crosses [q * total] inside some bucket; interpolate
   linearly between that bucket's bounds.  The histogram cannot resolve
   above its last bound, so any mass in the overflow bucket reports the
   last bound — an under-estimate the caller accepts by choosing the
   bucket range; no extrapolation past it.  Degenerate shapes (no
   observations, or a histogram with no finite buckets at all) are [None]
   rather than a crash or a divide-by-zero. *)
let quantile v q =
  match v with
  | Counter_v _ | Gauge_v _ -> None
  | Hist_v { buckets; counts; _ } ->
      let total = Array.fold_left ( + ) 0 counts in
      let nb = Array.length buckets in
      if total = 0 || nb = 0 then None
      else begin
        let q = Float.max 0.0 (Float.min 1.0 q) in
        let rank = q *. float_of_int total in
        let rec go i cum =
          if i >= nb then Some buckets.(nb - 1)
          else
            let here = counts.(i) in
            if here > 0 && float_of_int (cum + here) >= rank then
              let lo = if i = 0 then 0.0 else buckets.(i - 1) in
              let hi = buckets.(i) in
              let frac =
                Float.max 0.0
                  (Float.min 1.0 ((rank -. float_of_int cum) /. float_of_int here))
              in
              Some (lo +. ((hi -. lo) *. frac))
            else go (i + 1) (cum + here)
        in
        go 0 0
      end

(* Quiescent use only (tests, bench re-runs): zeroing another domain's
   arrays while it records would race. *)
let clear () =
  List.iter
    (fun s ->
      Array.fill s.counters 0 (Array.length s.counters) 0;
      Array.fill s.gauges 0 (Array.length s.gauges) 0.0;
      Array.fill s.gauge_set 0 (Array.length s.gauge_set) false;
      Array.fill s.gauge_ts 0 (Array.length s.gauge_ts) 0;
      Array.iter (fun h -> Array.fill h 0 (Array.length h) 0) s.hist;
      Array.fill s.hist_sum 0 (Array.length s.hist_sum) 0.0)
    (all_slots ())
