(* The serving loop.  See the .mli for the architecture overview.

   Single-threaded [select] over all sockets; parallelism lives inside
   the engine's [eval_into] (the Pool domains), not in the I/O layer, so
   connection state needs no locks.  Each cycle is parse -> one coalesced
   eval -> reply -> flush; replies preserve per-connection FIFO order
   because items are appended in parse order and written back in the same
   order.  Reach frames stay flat all the way: decoded into the state's
   reused id columns, answered into its reused answer bytes, and replied
   with a slice of those bytes.  Pattern frames are matched when their
   reply is due, into the engine's reused bitsets, and the 'H' frame is
   written from those straight into the connection's output queue. *)

module SP = Server_protocol

(* ------------------------------------------------------------------ *)
(* Metrics, registered once at module init *)

let m_connections = Obs.counter "server.connections"
let m_frames = Obs.counter "server.frames"
let m_malformed = Obs.counter "server.malformed"
let m_queries = Obs.counter "server.queries"
let m_batches = Obs.counter "server.batches"
let m_scrapes = Obs.counter "server.scrapes"
let m_rejected = Obs.counter "server.rejected"
let m_oversize = Obs.counter "server.oversize_replies"
let h_batch = Obs.histogram "server.batch_size"
let h_queue = Obs.histogram "server.queue_depth"

(* Point-in-time gauges, refreshed once per loop cycle; their merge is
   last-writer-wins, so a future multi-domain server can refresh them
   from any domain without double-counting. *)
let g_conns = Obs.gauge "server.connections_open"
let g_queue = Obs.gauge "server.queue_depth_last"

(* Per-frame turnaround, 1 us .. ~1 s at four buckets per octave
   (2^(i/4)), so a bucket-interpolated p50 lands within 19% of the true
   value.  The fourth roots of 2 come from [sqrt]: [Float.pow] would page
   libm's pow tables into every process that links this module. *)
let h_latency =
  let r = Float.sqrt (Float.sqrt 2.0) in
  let step = [| 1.0; r; r *. r; r *. r *. r |] in
  Obs.histogram
    ~buckets:
      (Array.init 81 (fun i -> float_of_int (1 lsl (i / 4)) *. step.(i land 3)))
    "server.latency_us"

(* ------------------------------------------------------------------ *)
(* Engines *)

type engine = {
  info : string;
  route : string;
  describe : string;
  node_bound : int;
  eval_into : Reach_query.flat_eval;
  patterns : Compress_bisim.scratch Lazy.t option;
      (* The match on Gr and the rows of P, reused across queries: only
         the select loop touches them, one pattern at a time. *)
}

let engine_info e = e.info
let engine_route e = e.route
let node_bound e = e.node_bound
let eval e pairs = Reach_query.eval_pairs e.eval_into pairs

let engine_of_graph ?pool ?index g =
  let planner = Planner.create ?pool ?index g in
  let bisim = lazy (Compress_bisim.scratch (Compress_bisim.compress ?pool g)) in
  {
    info =
      Printf.sprintf "graph, %d node(s), %d edge(s), %s backend" (Digraph.n g)
        (Digraph.m g) (Digraph.backend_name g);
    route = Planner.route_name (Planner.route planner);
    describe = Planner.describe planner;
    node_bound = Digraph.n g;
    eval_into = Planner.eval_into ?pool planner;
    patterns = Some bisim;
  }

let engine_of_compressed ?pool c =
  let idx = Compress_reach.index ?pool c in
  let hypernodes = Digraph.n (Compressed.graph c) in
  {
    info =
      Printf.sprintf "compressed snapshot, %d hypernode(s) for %d original node(s)"
        hypernodes (Compressed.original_n c);
    route = "index";
    describe =
      Printf.sprintf "%s index over the %d-hypernode compression"
        (Reach_index.algorithm_name (Reach_index.algorithm idx))
        hypernodes;
    node_bound = Compressed.original_n c;
    eval_into = Reach_index.query_into ?pool idx;
    patterns = Some (Lazy.from_val (Compress_bisim.scratch c));
  }

let engine_of_index ?pool idx =
  let name = Reach_index.algorithm_name (Reach_index.algorithm idx) in
  {
    info =
      Printf.sprintf "%s index snapshot, %d indexed node(s) for %d original node(s)"
        name (Reach_index.indexed_n idx)
        (Reach_index.original_n idx);
    route = "index";
    describe = Printf.sprintf "%s index, %d byte(s)" name (Reach_index.memory_bytes idx);
    node_bound = Reach_index.original_n idx;
    eval_into = Reach_index.query_into ?pool idx;
    patterns = None;
  }

let load_engine ?pool ?(mmap = true) ?index_file path =
  let index = Option.map (fun f -> Reach_index_io.load ~mmap f) index_file in
  let reject_index what =
    if Option.is_some index then
      invalid_arg
        (Printf.sprintf
           "Server.load_engine: an index file cannot be combined with a %s snapshot"
           what)
  in
  match Graph_io.snapshot_kind path with
  | Some 'C' ->
      reject_index "compressed";
      engine_of_compressed ?pool (Compressed_io.load ~mmap path)
  | Some 'I' ->
      reject_index "index";
      engine_of_index ?pool (Reach_index_io.load ~mmap path)
  | Some _ ->
      let g, _labels = Graph_io.load ~mmap path in
      engine_of_graph ?pool ?index g
  | None -> (
      (* A text snapshot carries no kind byte.  The compression text
         format strictly extends the graph records with 'o'/'m' lines
         after the edges, so a text .qc fails the graph parser exactly
         at its first 'o' line — retry those as a compression.  When
         both parsers reject the file, report the error of the one that
         got further into it. *)
      match Graph_io.load ~mmap path with
      | g, _labels -> engine_of_graph ?pool ?index g
      | exception (Graph_io.Parse_error (graph_line, _) as graph_err) -> (
          match Compressed_io.load ~mmap path with
          | c ->
              reject_index "compressed";
              engine_of_compressed ?pool c
          | exception Graph_io.Parse_error (comp_line, _)
            when comp_line <= graph_line ->
              raise graph_err))

(* ------------------------------------------------------------------ *)
(* Connections and serving state *)

type listener = Unix_socket of string | Tcp of { host : string; port : int }

type totals = {
  accepted : int;
  rejected : int;
  frames : int;
  malformed : int;
  queries : int;
  batches : int;
}

(* A connection buffer: bytes [pos .. len) of [buf] are live.  Reads
   land in place after them; decoding and writes go straight from them. *)
type bytes_queue = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

type conn = {
  fd : Unix.file_descr;
  inq : bytes_queue;  (* received, not yet parsed *)
  outq : bytes_queue;  (* encoded replies, not yet written *)
  mutable closing : bool;  (* close once [outq] is flushed *)
}

type state = {
  engine : engine;
  max_frame : int;
  queue_max : int;
  batch_max : int;
  started_ns : int;
  slow_ns : int;  (* flight-recorder threshold *)
  sample_every : int;  (* 1-in-N below-threshold sampling; 0 = off *)
  flight : Obs.Ring.t;
  flight_file : string;  (* SIGUSR1 dump target *)
  w_queries : Obs.Window.t;  (* rolling qps *)
  w_latency : Obs.Window.t;  (* rolling p50/p99 *)
  frame_hook : (char -> unit) option;  (* test-only latency injection *)
  pairs : SP.pairs;  (* the cycle's reach queries, reused across cycles *)
  mutable answers : Bytes.t;  (* their 0/1 answers, the 'A' bodies *)
  enc : Buffer.t;  (* one reply at a time, on its way to a [conn.outq] *)
  mutable conns : conn list;
  mutable hconns : conn list;  (* HTTP scrape connections, one-shot *)
  mutable lfds : Unix.file_descr list;
  mutable http_lfds : Unix.file_descr list;
  mutable ready : bool;  (* listeners bound, engine resident *)
  mutable draining : bool;
  mutable open_conns : int;  (* [conns] and [hconns] together *)
  mutable accepted : int;
  mutable rejected : int;
  mutable accept_retry_ns : int;
      (* accept back-off: listeners sit out of select until this clock
         reading; 0 when no accept has failed since a backlog drained *)
  mutable scrapes : int;
  mutable frames : int;
  mutable malformed : int;
  mutable queries : int;
  mutable batches : int;
  mutable next_trace : int;  (* per-frame trace ids, 1-based *)
  mutable last_depth : int;  (* items in the last dispatch cycle *)
  mutable cleanup : (unit -> unit) list;  (* unlink unix socket paths *)
}

(* Reads pause on a connection holding this much unflushed output. *)
let out_high_water = 1 lsl 20

(* Connection buffers start this large and double on demand. *)
let queue_create () = { buf = Bytes.create 4096; pos = 0; len = 0 }

let live q = q.len - q.pos

let clear q =
  q.pos <- 0;
  q.len <- 0

(* Room for [room] more bytes after the live ones, which move to the
   front — of a buffer at least twice as large when they do not fit. *)
let reserve q room =
  if Bytes.length q.buf - q.len < room then begin
    let n = live q in
    let buf =
      if n + room <= Bytes.length q.buf then q.buf
      else Bytes.create (Mono.imax (n + room) (2 * Bytes.length q.buf))
    in
    Bytes.blit q.buf q.pos buf 0 n;
    q.buf <- buf;
    q.pos <- 0;
    q.len <- n
  end

let push_buffer q b =
  let k = Buffer.length b in
  reserve q k;
  Buffer.blit b 0 q.buf q.len k;
  q.len <- q.len + k

let push_string q s =
  let k = String.length s in
  reserve q k;
  Bytes.blit_string s 0 q.buf q.len k;
  q.len <- q.len + k

let out_pending c = live c.outq

let pending_frame st c =
  (not c.closing)
  && live c.inq >= 4
  && SP.frame_ready ~max_frame:st.max_frame c.inq.buf ~pos:c.inq.pos
       ~len:c.inq.len

let stats_text st =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "graph: %s" st.engine.info;
  line "engine: %s" st.engine.describe;
  line "route: %s" st.engine.route;
  line "domains: %d" (Pool.domains (Pool.default ()));
  line "connections: %d open, %d accepted, %d rejected" (List.length st.conns)
    st.accepted st.rejected;
  line "frames: %d ok, %d malformed" st.frames st.malformed;
  line "queries: %d" st.queries;
  line "batches: %d" st.batches;
  let q p =
    match Obs.Metrics.find "server.latency_us" with
    | None -> "n/a"
    | Some v -> (
        match Obs.Metrics.quantile v p with
        | None -> "n/a"
        | Some x -> Printf.sprintf "%.0f" x)
  in
  line "latency_us: p50 %s, p99 %s" (q 0.5) (q 0.99);
  let uptime = Obs.Clock.elapsed_s st.started_ns in
  line "uptime_s: %.1f" uptime;
  line "qps: %.1f" (float_of_int st.queries /. Float.max uptime 1e-9);
  let win = Printf.sprintf "%.0fs" (Obs.Window.window_seconds st.w_queries) in
  line "qps_%s: %.1f" win
    (Option.value (Obs.Window.rate st.w_queries) ~default:0.0);
  let wq p =
    match Obs.Window.quantile st.w_latency p with
    | None -> "n/a"
    | Some x -> Printf.sprintf "%.0f" x
  in
  line "latency_us_%s: p50 %s, p99 %s" win (wq 0.5) (wq 0.99);
  line "queue_depth: %d" st.last_depth;
  line "scrapes: %d" st.scrapes;
  line "flight: %d recorded, %d capacity, slow_us %.0f"
    (Obs.Ring.recorded st.flight)
    (Obs.Ring.capacity st.flight)
    (float_of_int st.slow_ns /. 1e3);
  let gc = Gc.quick_stat () in
  line "gc: minor %d, major %d, heap_words %d" gc.minor_collections
    gc.major_collections gc.heap_words;
  Buffer.contents b

(* The Prometheus dump plus the rolling-window families the lifetime
   registry cannot answer: current qps and current latency quantiles.
   Served by both the 'M' verb and GET /metrics. *)
let metrics_text st =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Obs.prometheus ());
  let win = Printf.sprintf "%.0fs" (Obs.Window.window_seconds st.w_queries) in
  let gauge name v =
    Buffer.add_string b
      (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name
         (Obs_export.float_str v))
  in
  gauge
    (Printf.sprintf "qpgc_server_qps_%s" win)
    (Option.value (Obs.Window.rate st.w_queries) ~default:0.0);
  gauge
    (Printf.sprintf "qpgc_server_latency_us_p50_%s" win)
    (Option.value (Obs.Window.quantile st.w_latency 0.5) ~default:0.0);
  gauge
    (Printf.sprintf "qpgc_server_latency_us_p99_%s" win)
    (Option.value (Obs.Window.quantile st.w_latency 0.99) ~default:0.0);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The parse -> eval -> reply cycle *)

(* Work discovered during the parse phase, in per-connection arrival
   order.  [Slice] points into the cycle's answer bytes.  [Pattern] is
   evaluated when it is delivered, straight into the engine's reused
   scratch and from there into the connection's output: evaluating it at
   parse time would let the cycle's next pattern overwrite the scratch
   before the reply is written.  Every frame — well-formed or not —
   carries a [meta] with its daemon-unique trace id, so the flight
   recorder can name it. *)
type meta = { trace : int; verb : char; batch : int }

type item =
  | Ready of conn * SP.response * int * meta  (* response, start ns *)
  | Slice of conn * int * int * int * meta  (* offset, length, start ns *)
  | Pattern of conn * Pattern.t * int * meta  (* pattern, start ns *)

let verb_char = function
  | SP.Reach _ -> 'R'
  | SP.Match _ -> 'P'
  | SP.Stats -> 'S'
  | SP.Metrics -> 'M'
  | SP.Dump -> 'D'
  | SP.Shutdown -> 'X'

(* An 'R' frame just appended its [k] pairs to [st.pairs]: answer them
   with the cycle, unless an id is out of range — then drop them again
   and reply with an error naming the first such query. *)
let reach_frame st items c k t0 m =
  let p = st.pairs in
  let off = p.SP.len - k in
  let bound = st.engine.node_bound in
  let bad = ref (-1) in
  let i = ref 0 in
  while !bad < 0 && !i < k do
    if p.SP.src.(off + !i) >= bound || p.SP.dst.(off + !i) >= bound then
      bad := !i;
    incr i
  done;
  if !bad >= 0 then begin
    SP.pairs_truncate p off;
    items :=
      Ready
        ( c,
          SP.Error
            (Printf.sprintf "query %d: node id out of range (node count %d)" !bad
               bound),
          t0, m )
      :: !items
  end
  else items := Slice (c, off, k, t0, m) :: !items

let handle_request st items c req t0 m =
  let push i = items := i :: !items in
  match req with
  | SP.Reach _ ->
      (* [SP.decode_into] returns every 'R' frame as [Pairs]. *)
      assert false
  | SP.Match p -> push (Pattern (c, p, t0, m))
  | SP.Stats -> push (Ready (c, SP.Text (stats_text st), t0, m))
  | SP.Metrics -> push (Ready (c, SP.Text (metrics_text st), t0, m))
  | SP.Dump ->
      push (Ready (c, SP.Text (Obs.Ring.to_chrome_json st.flight), t0, m))
  | SP.Shutdown ->
      Obs.Log.info "draining" ~fields:[ ("reason", Obs.Log.Str "shutdown verb") ];
      st.draining <- true;
      push (Ready (c, SP.Text "draining", t0, m))

let parse_conn st items c =
  let q = c.inq in
  if live q > 0 && not c.closing then begin
    let parsed = ref 0 in
    let stop = ref false in
    let fresh_meta verb batch =
      st.next_trace <- st.next_trace + 1;
      { trace = st.next_trace; verb; batch }
    in
    let hook verb = match st.frame_hook with Some f -> f verb | None -> () in
    while (not !stop) && !parsed < st.queue_max do
      match
        SP.decode_into ~max_frame:st.max_frame st.pairs q.buf ~pos:q.pos
          ~len:q.len
      with
      | None -> stop := true
      | Some (decoded, next) ->
          let t0 = Obs.Clock.now_ns () in
          (match decoded with
          | SP.Malformed msg ->
              st.malformed <- st.malformed + 1;
              Obs.incr m_malformed;
              items :=
                Ready
                  (c, SP.Error ("malformed frame: " ^ msg), t0, fresh_meta '?' 0)
                :: !items
          | SP.Frame (SP.Pairs k) ->
              st.frames <- st.frames + 1;
              Obs.incr m_frames;
              hook 'R';
              reach_frame st items c k t0 (fresh_meta 'R' k)
          | SP.Frame (SP.Request req) ->
              st.frames <- st.frames + 1;
              Obs.incr m_frames;
              let verb = verb_char req in
              hook verb;
              handle_request st items c req t0 (fresh_meta verb 0));
          q.pos <- next;
          incr parsed
      | exception SP.Parse_error (_, msg) ->
          (* The length prefix itself lied: reply, then drop the
             connection — the stream cannot be resynchronised. *)
          st.malformed <- st.malformed + 1;
          Obs.incr m_malformed;
          items :=
            Ready (c, SP.Error msg, Obs.Clock.now_ns (), fresh_meta '?' 0)
            :: !items;
          c.closing <- true;
          q.pos <- q.len;
          stop := true
    done;
    if !parsed > 0 then Obs.observe h_queue (float_of_int !parsed);
    if live q = 0 then clear q
  end

(* Answer the cycle's pairs [0 .. total) into [st.answers], [batch_max]
   at a time. *)
let run_batches st total =
  let p = st.pairs in
  if Bytes.length st.answers < total then
    st.answers <- Bytes.create (Mono.imax total (2 * Bytes.length st.answers));
  let off = ref 0 in
  while !off < total do
    let k = Mono.imin st.batch_max (total - !off) in
    st.engine.eval_into ~src:p.SP.src ~dst:p.SP.dst ~off:!off ~len:k st.answers;
    st.batches <- st.batches + 1;
    st.queries <- st.queries + k;
    Obs.incr m_batches;
    Obs.add m_queries k;
    Obs.observe h_batch (float_of_int k);
    off := !off + k
  done

(* Flight-recorder policy: every frame at or above the slow threshold is
   recorded; below it a deterministic 1-in-N sample (by trace id) keeps a
   baseline of normal traffic in the ring. *)
let record_flight st m ~t0 ~dur_ns ~depth =
  if dur_ns >= st.slow_ns then
    Obs.Ring.record st.flight ~id:m.trace ~verb:m.verb ~batch:m.batch
      ~queue:depth ~ts_ns:t0 ~dur_ns ~sampled:false
  else if st.sample_every > 0 && m.trace mod st.sample_every = 0 then
    Obs.Ring.record st.flight ~id:m.trace ~verb:m.verb ~batch:m.batch
      ~queue:depth ~ts_ns:t0 ~dur_ns ~sampled:true

(* Time a frame whose reply is queued. *)
let replied st m ~t0 ~depth =
  let dur_ns = Obs.Clock.now_ns () - t0 in
  Obs.observe h_latency (Obs.Clock.ns_to_us dur_ns);
  record_flight st m ~t0 ~dur_ns ~depth

let respond st c r =
  Buffer.clear st.enc;
  SP.add_response st.enc r;
  push_buffer c.outq st.enc

(* Match [p] into the engine's scratch and write the 'H' frame straight
   from it into [c.outq], at the length [SP.matches_frame_length] gives.
   A reply over the frame cap is refused with an 'E' frame instead: the
   client could not read it, and the daemon keeps serving. *)
let pattern_reply st c p =
  match st.engine.patterns with
  | None ->
      respond st c
        (SP.Error "pattern queries are not supported over a bare index snapshot")
  | Some scratch -> (
      match
        let s = Lazy.force scratch in
        if Compress_bisim.answer_into s p then
          Some
            {
              SP.rows = Pattern.node_count p;
              row_length = Compress_bisim.row_length s;
              write_row = Compress_bisim.write_row s;
            }
        else None
      with
      | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
      | exception e ->
          respond st c
            (SP.Error ("pattern evaluation failed: " ^ Printexc.to_string e))
      | rows ->
          let len = SP.matches_frame_length rows in
          if SP.matches_fit len then begin
            let q = c.outq in
            reserve q len;
            q.len <- SP.write_matches q.buf q.len rows
          end
          else begin
            Obs.incr m_oversize;
            Obs.Log.warn "reply over the frame cap"
              ~fields:
                [
                  ("verb", Obs.Log.Str "P");
                  ("bytes", Obs.Log.Int len);
                  ("cap", Obs.Log.Int SP.default_max_frame);
                ];
            respond st c
              (SP.Error
                 (Printf.sprintf
                    "pattern reply of %d bytes exceeds the %d-byte frame cap" len
                    SP.default_max_frame))
          end)

let deliver st items ~depth =
  List.iter
    (function
      | Ready (c, r, t0, m) ->
          respond st c r;
          replied st m ~t0 ~depth
      | Slice (c, off, len, t0, m) ->
          Buffer.clear st.enc;
          SP.add_answers st.enc st.answers ~off ~len;
          push_buffer c.outq st.enc;
          replied st m ~t0 ~depth
      | Pattern (c, p, t0, m) ->
          pattern_reply st c p;
          replied st m ~t0 ~depth)
    items

let process_cycle st =
  let items = ref [] in
  SP.pairs_truncate st.pairs 0;
  List.iter (fun c -> parse_conn st items c) st.conns;
  let items = List.rev !items in
  let depth = List.length items in
  if depth > 0 then begin
    st.last_depth <- depth;
    Obs.set_gauge g_queue (float_of_int depth)
  end;
  run_batches st st.pairs.SP.len;
  deliver st items ~depth

(* ------------------------------------------------------------------ *)
(* Sockets *)

let open_listener st ~proto l =
  let note transport addr =
    Obs.Log.info "listening"
      ~fields:
        [
          ("proto", Obs.Log.Str proto);
          ("transport", Obs.Log.Str transport);
          ("addr", Obs.Log.Str addr);
        ]
  in
  match l with
  | Unix_socket path ->
      (* A stale socket file from a crashed daemon would make bind fail;
         replace it. *)
      if Sys.file_exists path then begin
        try Unix.unlink path with Unix.Unix_error _ -> ()
      end;
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      st.cleanup <-
        (fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
        :: st.cleanup;
      note "unix" path;
      fd
  | Tcp { host; port } ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Server_client.resolve_host host, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      note "tcp" (Printf.sprintf "%s:%d" host port);
      fd

(* [Unix.select] raises EINVAL on a descriptor at or above FD_SETSIZE
   (1024), which would take the whole daemon down.  Protocol and scrape
   connections together stay under this cap, which leaves room below
   FD_SETSIZE for stdio, the listeners and the snapshot files. *)
let max_connections = 1000

(* How long the listeners sit out of [select] after an accept ran out
   of descriptors, unless a connection closes first. *)
let accept_backoff_s = 0.25

(* An over-cap connection gets one best-effort reply — an 'E' frame, or
   a 503 on the scrape plane — and is closed before it ever reaches
   [select]. *)
let reject st fd ~http =
  let reply =
    let msg =
      Printf.sprintf "connection limit reached (%d open)" max_connections
    in
    if http then Server_http.response ~status:503 (msg ^ "\n")
    else begin
      let b = Buffer.create 64 in
      SP.add_response b (SP.Error msg);
      Buffer.contents b
    end
  in
  (try ignore (Unix.write_substring fd reply 0 (String.length reply) : int)
   with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  st.rejected <- st.rejected + 1;
  Obs.incr m_rejected;
  Obs.Log.warn "connection rejected"
    ~fields:
      [
        ("proto", Obs.Log.Str (if http then "http" else "qpgc"));
        ("limit", Obs.Log.Int max_connections);
        ("rejected", Obs.Log.Int st.rejected);
      ]

let rec accept_all st lfd ~http =
  match Unix.accept ~cloexec:true lfd with
  | fd, _addr ->
      Unix.set_nonblock fd;
      if st.open_conns >= max_connections then reject st fd ~http
      else begin
        let c =
          { fd; inq = queue_create (); outq = queue_create (); closing = false }
        in
        st.open_conns <- st.open_conns + 1;
        if http then st.hconns <- c :: st.hconns
        else begin
          st.accepted <- st.accepted + 1;
          Obs.incr m_connections;
          st.conns <- c :: st.conns
        end
      end;
      accept_all st lfd ~http
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      st.accept_retry_ns <- 0
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      accept_all st lfd ~http
  | exception Unix.Unix_error (((Unix.EMFILE | Unix.ENFILE) as e), _, _) ->
      (* Out of descriptors below the cap.  The connection stays in the
         backlog, so a listener left in the select set would wake the
         loop at once and fail again: pause the listeners until a
         connection closes or [accept_backoff_s] passes.  One log line
         per episode, which ends once the backlog is drained. *)
      if st.accept_retry_ns = 0 then
        Obs.Log.error "accept failed"
          ~fields:[ ("error", Obs.Log.Str (Unix.error_message e)) ];
      st.accept_retry_ns <-
        Obs.Clock.now_ns () + int_of_float (accept_backoff_s *. 1e9)

(* One-shot HTTP handling for the scrape plane: parse once the header
   terminator is in, answer, close.  Routed entirely off the request
   path so a scraper can never touch protocol state. *)
let http_route st (r : Server_http.request) =
  if r.meth <> "GET" then (405, "text/plain; charset=utf-8", "only GET\n")
  else
    match r.path with
    | "/metrics" ->
        (200, "text/plain; version=0.0.4; charset=utf-8", metrics_text st)
    | "/healthz" -> (200, "text/plain; charset=utf-8", "ok\n")
    | "/readyz" ->
        if st.draining then (503, "text/plain; charset=utf-8", "draining\n")
        else if st.ready then (200, "text/plain; charset=utf-8", "ready\n")
        else (503, "text/plain; charset=utf-8", "starting\n")
    | _ -> (404, "text/plain; charset=utf-8", "not found\n")

(* [fed] holds the scrape connections a read added bytes to this cycle;
   the others hold no new input, so they are not parsed again. *)
let process_http st fed =
  List.iter
    (fun c ->
      if (not c.closing) && c.outq.len = 0 then
        match
          Server_http.parse (Bytes.sub_string c.inq.buf c.inq.pos (live c.inq))
        with
        | Server_http.Incomplete -> ()
        | Server_http.Bad msg ->
            push_string c.outq (Server_http.response ~status:400 (msg ^ "\n"));
            c.closing <- true
        | Server_http.Request r ->
            let status, content_type, body = http_route st r in
            st.scrapes <- st.scrapes + 1;
            Obs.incr m_scrapes;
            Obs.Log.debug "scrape"
              ~fields:
                [ ("path", Obs.Log.Str r.path); ("status", Obs.Log.Int status) ];
            push_string c.outq (Server_http.response ~status ~content_type body);
            c.closing <- true)
    fed

(* A read is offered at least this much room. *)
let min_read = 1024

(* True when the read added bytes to [c]'s input. *)
let read_conn c =
  let q = c.inq in
  reserve q min_read;
  match Unix.read c.fd q.buf q.len (Bytes.length q.buf - q.len) with
  | 0 ->
      c.closing <- true;
      false
  | k ->
      q.len <- q.len + k;
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      false
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      clear c.outq;
      c.closing <- true;
      false

let flush_conn c =
  let q = c.outq in
  let progress = ref true in
  while !progress && live q > 0 do
    let k = Mono.imin 65536 (live q) in
    match Unix.write c.fd q.buf q.pos k with
    | n ->
        q.pos <- q.pos + n;
        if n < k then progress := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        progress := false
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        clear q;
        c.closing <- true;
        progress := false
  done;
  if live q = 0 then clear q

let sweep st =
  let close_done conns =
    let closed, live =
      List.partition (fun c -> c.closing && out_pending c = 0) conns
    in
    List.iter
      (fun c ->
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        st.open_conns <- st.open_conns - 1)
      closed;
    (* A freed descriptor ends an accept back-off early. *)
    (match closed with
    | _ :: _ when st.accept_retry_ns > 0 -> st.accept_retry_ns <- 1
    | _ -> ());
    live
  in
  st.conns <- close_done st.conns;
  st.hconns <- close_done st.hconns

let dump_flight st =
  match open_out st.flight_file with
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (Obs.Ring.to_chrome_json st.flight));
      Obs.Log.info "flight recorder dumped"
        ~fields:
          [
            ("path", Obs.Log.Str st.flight_file);
            ( "entries",
              Obs.Log.Int
                (Mono.imin (Obs.Ring.recorded st.flight) (Obs.Ring.capacity st.flight))
            );
          ]
  | exception Sys_error e ->
      Obs.Log.error "flight dump failed" ~fields:[ ("error", Obs.Log.Str e) ]

(* ------------------------------------------------------------------ *)
(* Main loop *)

let serve_loop st stop usr1 =
  let rec go () =
    if st.draining && (st.lfds <> [] || st.http_lfds <> []) then begin
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (st.lfds @ st.http_lfds);
      st.lfds <- [];
      st.http_lfds <- []
    end;
    if st.draining && st.conns = [] && st.hconns = [] then ()
    else begin
      let backlog = List.exists (pending_frame st) st.conns in
      let add_readable acc c =
        if
          (not c.closing) && (not st.draining)
          && out_pending c < out_high_water
        then c.fd :: acc
        else acc
      in
      let add_writable acc c = if out_pending c > 0 then c.fd :: acc else acc in
      let listening =
        st.accept_retry_ns = 0 || Obs.Clock.now_ns () >= st.accept_retry_ns
      in
      let rfds =
        List.fold_left add_readable
          (List.fold_left add_readable [] st.conns)
          st.hconns
      in
      let rfds = if listening then st.lfds @ st.http_lfds @ rfds else rfds in
      let wfds =
        List.fold_left add_writable
          (List.fold_left add_writable [] st.conns)
          st.hconns
      in
      let timeout = if backlog then 0.0 else if st.draining then 0.05 else 0.25 in
      let fed =
        match Unix.select rfds wfds [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        | readable, _, _ ->
            List.iter
              (fun fd ->
                if List.memq fd st.lfds then accept_all st fd ~http:false
                else if List.memq fd st.http_lfds then
                  accept_all st fd ~http:true)
              readable;
            List.iter
              (fun c -> if List.memq c.fd readable then ignore (read_conn c))
              st.conns;
            List.filter
              (fun c -> List.memq c.fd readable && read_conn c)
              st.hconns
      in
      if !stop && not st.draining then begin
        Obs.Log.info "draining" ~fields:[ ("reason", Obs.Log.Str "signal") ];
        st.draining <- true
      end;
      if !usr1 then begin
        usr1 := false;
        dump_flight st
      end;
      process_cycle st;
      process_http st fed;
      Obs.Window.tick st.w_queries;
      Obs.Window.tick st.w_latency;
      Obs.set_gauge g_conns (float_of_int (List.length st.conns));
      List.iter flush_conn st.conns;
      List.iter flush_conn st.hconns;
      if st.draining then begin
        List.iter
          (fun c -> if not (pending_frame st c) then c.closing <- true)
          st.conns;
        List.iter (fun c -> c.closing <- true) st.hconns
      end;
      sweep st;
      if Obs.Log.pending () then Obs.Log.flush ();
      go ()
    end
  in
  go ()

let default_flight_file () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "qpgc-flight-%d.json" (Unix.getpid ()))

let run ?(max_frame = SP.default_max_frame) ?(queue_max = 64)
    ?(batch_max = 8192) ?(on_ready = fun () -> ()) ?(http_listeners = [])
    ?(slow_us = 1000.0) ?(sample_every = 64) ?(flight_cap = 4096) ?flight_file
    ?frame_hook ~listeners engine =
  if listeners = [] then invalid_arg "Server.run: no listeners";
  if queue_max < 1 then invalid_arg "Server.run: queue_max must be positive";
  if batch_max < 1 then invalid_arg "Server.run: batch_max must be positive";
  Obs.set_metrics true;
  let st =
    {
      engine;
      max_frame;
      queue_max;
      batch_max;
      started_ns = Obs.Clock.now_ns ();
      slow_ns = int_of_float (Float.max 0.0 slow_us *. 1e3);
      sample_every;
      flight = Obs.Ring.create ~cap:flight_cap ();
      flight_file =
        (match flight_file with
        | Some f -> f
        | None -> default_flight_file ());
      w_queries = Obs.Window.create "server.queries";
      w_latency = Obs.Window.create "server.latency_us";
      frame_hook;
      pairs = SP.pairs_create ();
      answers = Bytes.empty;
      enc = Buffer.create 4096;
      conns = [];
      hconns = [];
      lfds = [];
      http_lfds = [];
      ready = false;
      draining = false;
      open_conns = 0;
      accepted = 0;
      rejected = 0;
      accept_retry_ns = 0;
      scrapes = 0;
      frames = 0;
      malformed = 0;
      queries = 0;
      batches = 0;
      next_trace = 0;
      last_depth = 0;
      cleanup = [];
    }
  in
  let stop = ref false in
  let usr1 = ref false in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true)) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)) in
  let old_usr1 = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> usr1 := true)) in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigusr1 old_usr1;
      Sys.set_signal Sys.sigpipe old_pipe;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (st.lfds @ st.http_lfds);
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        (st.conns @ st.hconns);
      st.lfds <- [];
      st.http_lfds <- [];
      st.conns <- [];
      st.hconns <- [];
      st.open_conns <- 0;
      List.iter (fun f -> f ()) st.cleanup;
      Obs.Log.flush ())
    (fun () ->
      st.lfds <- List.map (open_listener st ~proto:"qpgc") listeners;
      st.http_lfds <- List.map (open_listener st ~proto:"http") http_listeners;
      (* The engine was built before [run] was entered, so readiness is
         "listeners bound over a resident engine". *)
      st.ready <- true;
      on_ready ();
      serve_loop st stop usr1;
      Obs.Log.info "drained"
        ~fields:
          [ ("frames", Obs.Log.Int st.frames); ("queries", Obs.Log.Int st.queries) ];
      {
        accepted = st.accepted;
        rejected = st.rejected;
        frames = st.frames;
        malformed = st.malformed;
        queries = st.queries;
        batches = st.batches;
      })
