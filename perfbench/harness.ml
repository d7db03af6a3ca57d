(* Benchmark harness for qpgc; run.py in this directory runs it, see
   README.md.  Subcommands:

   - gen       make one workload's inputs and oracle answers from a seed;
   - client    the closed-loop, single-connection client of [qpgc serve];
   - inproc    the in-process per-layer pass of a traced serve run;
   - maintain  apply ΔG batches to Inc_reach and Inc_bisim;
   - check     the maintain oracle: from-scratch compressions at the
               checkpoints the maintain run saved.

   Each prints one JSON object on stdout.  Only [gen] and [maintain]
   see the seed; the qpgc binaries only receive the files [gen] writes. *)

module SP = Server_protocol

(* ------------------------------------------------------------------ *)
(* Arguments: [harness CMD --key value ...]. *)

let opts : (string, string) Hashtbl.t = Hashtbl.create 16

let parse_args () =
  let a = Sys.argv in
  let i = ref 2 in
  while !i < Array.length a do
    let k = a.(!i) in
    if String.length k < 3 || String.sub k 0 2 <> "--" || !i + 1 >= Array.length a
    then failwith ("bad argument " ^ k);
    Hashtbl.replace opts (String.sub k 2 (String.length k - 2)) a.(!i + 1);
    i := !i + 2
  done

let str k =
  match Hashtbl.find_opt opts k with
  | Some v -> v
  | None -> failwith ("missing --" ^ k)

let int k = int_of_string (str k)
let float k = float_of_string (str k)
let flag k = Hashtbl.find_opt opts k = Some "1"
let path name = Filename.concat (str "work") name

(* ------------------------------------------------------------------ *)
(* Output. *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let inum = string_of_int
let jstr s = Printf.sprintf "%S" s

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields) ^ "}"

let print_obj fields = print_string (obj fields ^ "\n")

let read_file f = In_channel.with_open_bin f In_channel.input_all

let write_file f s =
  Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

let now = Obs.Clock.now_ns
let us_of_ns ns = float_of_int ns /. 1e3
let s_of_ns ns = float_of_int ns /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Spans are kept in memory as (name, tid, id, start, end) and written
   out at exit as Chrome trace events, one JSON object per line; run.py
   merges the files of one run into a single Perfetto-loadable trace.
   Timestamps are absolute monotonic-clock ns, shared by all processes.
   The spans of one frame or batch share an id (-1: none). *)
let spans : (string * int * int * int * int) list ref = ref []

let span_event ?(tid = 1) ?(id = -1) name t0 t1 = spans := (name, tid, id, t0, t1) :: !spans

(* At most this many spans of one name are written, to keep trace files
   loadable; all of them are recorded. *)
let spans_written_per_name = 20_000

(* [span name f] is [f ()] and its duration in ns, recorded as a span. *)
let span ?tid ?id name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  span_event ?tid ?id name t0 t1;
  (r, t1 - t0)

(* The library's own phase spans (Obs, recorded relative to a private
   epoch) re-based so that the span named [root] starts at [root_t0]; only
   [root] and the spans inside it are copied. *)
let add_obs_events ~root ~root_t0 =
  let evs = Obs.Trace.events () in
  match List.find_opt (fun (e : Obs.Trace.event) -> e.name = root) evs with
  | None -> ()
  | Some r ->
      List.iter
        (fun (e : Obs.Trace.event) ->
          if e.ts_ns >= r.ts_ns && e.ts_ns + e.dur_ns <= r.ts_ns + r.dur_ns then begin
            let t0 = root_t0 + (e.ts_ns - r.ts_ns) in
            span_event ~tid:(2 + e.depth) e.name t0 (t0 + e.dur_ns)
          end)
        evs

let write_events () =
  match Hashtbl.find_opt opts "events" with
  | None -> ()
  | Some f ->
      let pid = Unix.getpid () and written = Hashtbl.create 16 in
      Out_channel.with_open_bin f (fun oc ->
          List.iter
            (fun (name, tid, id, t0, t1) ->
              let k = Option.value (Hashtbl.find_opt written name) ~default:0 in
              if k < spans_written_per_name then begin
                Hashtbl.replace written name (k + 1);
                Printf.fprintf oc
                  "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}\n"
                  (jstr name) pid tid (us_of_ns t0) (us_of_ns (t1 - t0))
                  (if id < 0 then "{}" else Printf.sprintf "{\"id\":%d}" id)
              end)
            (List.rev !spans))

(* ------------------------------------------------------------------ *)
(* Workloads: which synthetic dataset stands in for the user's graph. *)

let spec_of = function
  | "serve-reach" -> Datasets.find "P2P"
  | "serve-pattern" -> Datasets.find "Youtube-l"
  | "maintain" -> Datasets.find "socEpinions"
  | w -> failwith ("unknown workload " ^ w)

(* Frames are length-prefixed; split a concatenation back into frames. *)
let split_frames s =
  let rec go pos acc =
    if pos >= String.length s then Array.of_list (List.rev acc)
    else
      let len = Int32.to_int (String.get_int32_le s pos) in
      go (pos + 4 + len) (String.sub s pos (4 + len) :: acc)
  in
  go 0 []

let encode add x =
  let b = Buffer.create 256 in
  add b x;
  Buffer.contents b

(* Descendant sweep from [s] (s itself included: QR(s, s) holds).  The
   oracle is this plain BFS over G, independent of every library
   traversal. *)
let bfs g queue s =
  let seen = Bytes.make (Digraph.n g) '\000' in
  Bytes.set seen s '\001';
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Digraph.iter_succ g u (fun v ->
        if Bytes.get seen v = '\000' then begin
          Bytes.set seen v '\001';
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  (seen, !tail)

let gen_reach rng g =
  let n = Digraph.n g in
  let sources = int "sources" and frames = int "frames" and batch = int "batch" in
  let queue = Array.make n 0 in
  (* Sources and targets are uniform, as in [Reach_query.random_pairs];
     sources come from a sample of [sources] nodes so that the oracle
     needs one sweep per sampled source. *)
  let sweeps =
    Array.init sources (fun _ ->
        let s = Random.State.int rng n in
        (s, fst (bfs g queue s)))
  in
  let fb = Buffer.create (frames * (batch * 8 + 16)) in
  let eb = Buffer.create (frames * (batch + 16)) in
  let positives = ref 0 in
  for _ = 1 to frames do
    let qs =
      Array.init batch (fun _ ->
          let i = Random.State.int rng sources in
          (i, fst sweeps.(i), Random.State.int rng n))
    in
    let answers = Array.map (fun (i, _, t) -> Bytes.get (snd sweeps.(i)) t = '\001') qs in
    Array.iter (fun a -> if a then incr positives) answers;
    SP.add_request fb (SP.Reach (Array.map (fun (_, s, t) -> (s, t)) qs));
    SP.add_response eb (SP.Answers answers)
  done;
  (Buffer.contents fb, Buffer.contents eb, batch,
   [ ("positive_share", num (float_of_int !positives /. float_of_int (frames * batch))) ])

(* Patterns are 4-node trees with bound-1 edges, anchored on a data
   subtree so that each has a match.  Longer bounds would make the oracle
   quadratic in memory: Bounded_sim builds k-hop descendant bitsets for
   every node of G. *)
let gen_pattern rng g =
  let count = int "patterns" in
  let seen = Hashtbl.create 64 and patterns = ref [] and tries = ref 0 in
  while Hashtbl.length seen < count do
    incr tries;
    if !tries > 100 * count then failwith "pattern generator keeps repeating";
    let p = Pattern_gen.anchored rng g ~nodes:4 ~edges:3 ~max_bound:1 in
    let key = Pattern_io.to_string p in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      patterns := p :: !patterns
    end
  done;
  let patterns = Array.of_list (List.rev !patterns) in
  (* The oracle on G, one pattern at a time (a cache shared across
     patterns would pile up bitsets), over two domains: it is not
     measured. *)
  let eval lo hi =
    Array.init (hi - lo) (fun i ->
        let r = Bounded_sim.eval patterns.(lo + i) g in
        (Pattern.result_size r, encode SP.add_response (SP.Matches r)))
  in
  let half = count / 2 in
  let other = Domain.spawn (fun () -> eval half count) in
  let results = Array.append (eval 0 half) (Domain.join other) in
  let fb = Buffer.create 4096 in
  Array.iter (fun p -> SP.add_request fb (SP.Match p)) patterns;
  let matched = Array.fold_left (fun acc (size, _) -> acc + size) 0 results in
  (Buffer.contents fb, String.concat "" (Array.to_list (Array.map snd results)), 1,
   [ ("mean_match_pairs", num (float_of_int matched /. float_of_int count)) ])

let batch_to_string b =
  String.concat ""
    (List.map
       (function
         | Edge_update.Insert (u, v) -> Printf.sprintf "i %d %d\n" u v
         | Edge_update.Delete (u, v) -> Printf.sprintf "d %d %d\n" u v)
       b)

let load_batches f =
  let batches = ref [] and cur = ref [] in
  In_channel.with_open_bin f (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some "-" ->
            batches := List.rev !cur :: !batches;
            cur := [];
            loop ()
        | Some l ->
            (match String.split_on_char ' ' l with
            | [ "i"; u; v ] -> cur := Edge_update.Insert (int_of_string u, int_of_string v) :: !cur
            | [ "d"; u; v ] -> cur := Edge_update.Delete (int_of_string u, int_of_string v) :: !cur
            | _ -> failwith ("bad batch line " ^ l));
            loop ()
      in
      loop ());
  Array.of_list (List.rev !batches)

let gen () =
  let workload = str "workload" and seed = int "seed" and nodes = int "nodes" in
  let spec = spec_of workload in
  let edges = nodes * spec.Datasets.edges / spec.Datasets.nodes in
  (* The graph is a fixed dataset, like the paper's real-life ones (the
     Datasets default seed); the seed draws what users send against it:
     queries, patterns and ΔG.  Seed-to-seed spread then reflects the
     requests and the machine, not a different graph each run. *)
  let g = Datasets.generate_scaled spec ~nodes ~edges in
  Graph_io.save_binary (path "g.bin") g;
  let rng = Random.State.make [| seed; 0x9E3779B9 |] in
  let extra =
    match workload with
    | "maintain" -> [ ("ops_per_frame", "1") ]
    | _ ->
        let frames, expected, ops, extra =
          if workload = "serve-reach" then gen_reach rng g else gen_pattern rng g
        in
        write_file (path "frames.bin") frames;
        write_file (path "expected.bin") expected;
        ("ops_per_frame", inum ops) :: extra
  in
  print_obj ([ ("nodes", inum (Digraph.n g)); ("edges", inum (Digraph.m g)) ] @ extra)

(* ------------------------------------------------------------------ *)
(* /proc counters of the process doing the work. *)

type proc = {
  cpu_ticks : int;  (** utime + stime, in clock ticks *)
  syscalls : int;  (** syscr + syscw *)
  rchar : int;
  wchar : int;
  ctx : int;  (** voluntary + involuntary context switches *)
  hwm_kb : int;  (** VmHWM *)
}

let proc_fields file =
  let t = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match String.index_opt l ':' with
      | None -> ()
      | Some i -> (
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          match String.split_on_char ' ' v with
          | x :: _ -> (
              match int_of_string_opt x with
              | Some x -> Hashtbl.replace t (String.sub l 0 i) x
              | None -> ())
          | [] -> ()))
    (String.split_on_char '\n' (read_file file));
  fun k -> Option.value (Hashtbl.find_opt t k) ~default:0

let read_proc pid =
  let dir = Printf.sprintf "/proc/%s/" pid in
  let stat = read_file (dir ^ "stat") in
  let r = String.rindex stat ')' in
  let toks = String.split_on_char ' ' (String.sub stat (r + 2) (String.length stat - r - 2)) in
  let field k = int_of_string (List.nth toks k) in
  let io = proc_fields (dir ^ "io") and st = proc_fields (dir ^ "status") in
  {
    cpu_ticks = field 11 + field 12;
    syscalls = io "syscr" + io "syscw";
    rchar = io "rchar";
    wchar = io "wchar";
    ctx = st "voluntary_ctxt_switches" + st "nonvoluntary_ctxt_switches";
    hwm_kb = st "VmHWM";
  }

let proc_sub a b =
  {
    cpu_ticks = a.cpu_ticks - b.cpu_ticks;
    syscalls = a.syscalls - b.syscalls;
    rchar = a.rchar - b.rchar;
    wchar = a.wchar - b.wchar;
    ctx = a.ctx - b.ctx;
    hwm_kb = a.hwm_kb;
  }

let proc_json d =
  [
    ("cpu_ticks", inum d.cpu_ticks);
    ("syscalls", inum d.syscalls);
    ("rchar", inum d.rchar);
    ("wchar", inum d.wchar);
    ("ctx", inum d.ctx);
    ("hwm_kb", inum d.hwm_kb);
  ]

let proc_zero = { cpu_ticks = 0; syscalls = 0; rchar = 0; wchar = 0; ctx = 0; hwm_kb = 0 }

(* CPU time (user + system) of a process in ns, -1 once it is gone; see
   cpuclock_stubs.c.  [cpu_clock pid] is the clock to pass to [cpu_ns]. *)
external cpu_clock : int -> int = "perfbench_cpu_clock" [@@noalloc]
external cpu_ns : int -> int = "perfbench_cpu_ns" [@@noalloc]

(* What one measuring mode (untraced or traced) accumulated over the
   whole run: latency samples in ns, ops, busy wall time and /proc
   deltas.  These raw figures move with whatever else the host runs. *)
type acc = {
  mutable lat : int array;
  mutable n : int;
  mutable ops : int;
  mutable wall_ns : int;
  mutable proc : proc;
}

let acc () = { lat = Array.make 4096 0; n = 0; ops = 0; wall_ns = 0; proc = proc_zero }

let record a ns =
  if a.n = Array.length a.lat then begin
    let l = Array.make (2 * a.n) 0 in
    Array.blit a.lat 0 l 0 a.n;
    a.lat <- l
  end;
  a.lat.(a.n) <- ns;
  a.n <- a.n + 1

(* Index of the highest percentile of [n] sorted samples with at least
   ten samples beyond it, capped at p99; sample k has n - 1 - k beyond. *)
let tail_index n = max (n / 2) (min (n - 11) (99 * n / 100))

let acc_json a =
  let n = a.n in
  let all = Array.sub a.lat 0 n in
  Array.sort Int.compare all;
  [
    ("frames", inum n);
    ("ops", inum a.ops);
    ("wall_s", num (s_of_ns a.wall_ns));
    ("p50_us", num (if n = 0 then nan else us_of_ns all.(n / 2)));
    ("tail_us", num (if n = 0 then nan else us_of_ns all.(tail_index n)));
  ]
  @ proc_json a.proc

(* Best of each request.  A workload cycles through a fixed list of
   distinct requests (items) and sends each many times in a run; per
   item this keeps the lowest latency and the least CPU time over its
   repetitions.  Other tenants of the host only ever add time, and they
   come and go within milliseconds, so an item's best over many
   repetitions is what the program costs on a quiet CPU.  It moves much
   less from run to run than the whole-run figures of a shared host; a
   slower program is slower in every repetition, its best included. *)
type best = { lat_min : int array; cpu_min : int array; reps : int array }

let best items =
  { lat_min = Array.make items max_int; cpu_min = Array.make items max_int; reps = Array.make items 0 }

let keep b i ~lat ~cpu =
  if lat < b.lat_min.(i) then b.lat_min.(i) <- lat;
  if cpu >= 0 && cpu < b.cpu_min.(i) then b.cpu_min.(i) <- cpu;
  b.reps.(i) <- b.reps.(i) + 1

(* The end-to-end figures from per-item bests, over the items sent at
   least once.  A request made of consecutive calls timed apart
   (maintain: Inc_reach.apply, then Inc_bisim.apply) passes one [best]
   per call; an item's latency and CPU are the sums of its calls' bests.
   The tail is over the items: the costliest requests, each at its best. *)
let best_json ~ops_per_item parts =
  let items = Array.length (List.hd parts).lat_min in
  let sum f i = List.fold_left (fun acc b -> acc + f b i) 0 parts in
  let sent = List.filter (fun i -> List.for_all (fun b -> b.reps.(i) > 0) parts) (List.init items Fun.id) in
  let lat = Array.of_list (List.map (sum (fun b i -> b.lat_min.(i))) sent) in
  let cpu_known = List.for_all (fun i -> List.for_all (fun b -> b.cpu_min.(i) < max_int) parts) sent in
  let cpu = List.fold_left (fun acc i -> acc + sum (fun b i -> b.cpu_min.(i)) i) 0 sent in
  let reps = List.fold_left (fun acc i -> min acc (List.hd parts).reps.(i)) max_int sent in
  let k = Array.length lat in
  let ops = k * ops_per_item in
  let total = Array.fold_left ( + ) 0 lat in
  Array.sort Int.compare lat;
  [
    ("items", inum k);
    ("reps_min", inum (if k = 0 then 0 else reps));
    ("best_ops_per_s", num (if k = 0 then nan else float_of_int ops /. s_of_ns total));
    ("best_p50_us", num (if k = 0 then nan else us_of_ns lat.(k / 2)));
    ("best_tail_us", num (if k = 0 then nan else us_of_ns lat.(tail_index k)));
    ("best_tail_q", num (float_of_int (tail_index k) /. float_of_int (max k 1)));
    ("best_cpu_us_per_op", num (if k = 0 || not cpu_known then nan else us_of_ns cpu /. float_of_int ops));
  ]

(* ------------------------------------------------------------------ *)
(* client *)

exception Broken of string

let client () =
  (* A daemon that dies mid-run must show up as failed frames. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let frames_ = split_frames (read_file (str "frames")) in
  let expected = split_frames (read_file (str "expected")) in
  let nf = Array.length frames_ in
  let ops = int "ops-per-frame" and pid = str "pid" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (str "socket"));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO (float "timeout");
  let buf = ref (Bytes.create 65536) in
  let write_all s =
    let b = Bytes.unsafe_of_string s in
    let len = Bytes.length b in
    let off = ref 0 in
    while !off < len do
      off := !off + Unix.write fd b !off (len - !off)
    done
  in
  let read_exact off n =
    if Bytes.length !buf < off + n then begin
      let b = Bytes.create (2 * (off + n)) in
      Bytes.blit !buf 0 b 0 off;
      buf := b
    end;
    let got = ref 0 in
    while !got < n do
      let r = Unix.read fd !buf (off + !got) (n - !got) in
      if r = 0 then raise (Broken "daemon closed the connection");
      got := !got + r
    done
  in
  let same e len =
    String.length e = len
    &&
    let rec go i = i = len || (Bytes.unsafe_get !buf i = String.unsafe_get e i && go (i + 1)) in
    go 0
  in
  (* One lockstep round trip: 0 = answer equals the oracle's, 1 = wrong
     answer, 2 = error reply; a broken connection raises [Broken]. *)
  let roundtrip frame expect =
    (try
       write_all frame;
       read_exact 0 4;
       let len = Int32.to_int (Bytes.get_int32_le !buf 0) in
       if len < 2 || len > 1 lsl 28 then raise (Broken "bad reply length");
       read_exact 4 len
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise (Broken "timeout")
    | Unix.Unix_error (e, _, _) -> raise (Broken (Unix.error_message e)));
    let len = 4 + Int32.to_int (Bytes.get_int32_le !buf 0) in
    if same expect len then 0 else if Bytes.get !buf 5 = 'E' then 2 else 1
  in
  let attempted = ref 0 and failed = ref 0 in
  let wrong = ref 0 and errors = ref 0 and broken = ref "" in
  let next = ref 0 and seq = ref 0 in
  (* The daemon's CPU time per frame: it runs only between the client's
     write and its read, as both share one CPU and the client waits. *)
  let clk = cpu_clock (int_of_string pid) in
  (* Round trips until [stop], into [acc] and [best].  A traced run
     records one span per frame, up to the number a trace file keeps. *)
  let phase ~stop ~trace acc best =
    let start = now () in
    while !broken = "" && now () < stop do
      let i = !next in
      next := (i + 1) mod nf;
      let c0 = cpu_ns clk in
      let t0 = now () in
      (* 3: the connection broke; such a frame has no latency to keep. *)
      let verdict =
        match roundtrip frames_.(i) expected.(i) with
        | v -> v
        | exception Broken why ->
            broken := why;
            3
      in
      let t1 = now () in
      let c1 = cpu_ns clk in
      if verdict > 0 then failed := !failed + ops;
      if verdict = 1 then incr wrong;
      if verdict = 2 then incr errors;
      attempted := !attempted + ops;
      acc.ops <- acc.ops + ops;
      if verdict < 3 then begin
        record acc (t1 - t0);
        keep best i ~lat:(t1 - t0) ~cpu:(if c0 < 0 || c1 < 0 then -1 else c1 - c0)
      end;
      if trace && !seq < spans_written_per_name then
        span_event ~tid:1 ~id:!seq "client.frame" t0 t1;
      incr seq
    done;
    acc.wall_ns <- acc.wall_ns + (now () - start)
  in
  let stats () =
    if !broken <> "" then ""
    else
      match roundtrip (encode SP.add_request SP.Stats) "" with
      | _ -> Bytes.sub_string !buf 6 (Int32.to_int (Bytes.get_int32_le !buf 0) - 2)
      | exception Broken why ->
          broken := why;
          ""
  in
  let stat_field text key =
    (* "gc: minor 12, ..." / "latency_us: p50 93, ..." *)
    List.fold_left
      (fun acc l ->
        match String.split_on_char ' ' l with
        | k :: _ :: v :: _ when k = key -> Option.value (float_of_string_opt (String.trim (String.map (fun c -> if c = ',' then ' ' else c) v))) ~default:acc
        | _ -> acc)
      nan (String.split_on_char '\n' text)
  in
  let seconds = float "seconds" and trace = flag "trace" in
  phase ~stop:(now () + int_of_float (float "warmup" *. 1e9)) ~trace:false (acc ()) (best nf);
  let measured = acc () and measured_best = best nf in
  let stats0 = if trace then stats () else "" in
  let p0 = read_proc pid in
  phase ~stop:(now () + int_of_float (seconds *. 1e9)) ~trace measured measured_best;
  (* A killed daemon has no /proc entry left: its counters read 0. *)
  (match read_proc pid with
  | p1 -> measured.proc <- proc_sub p1 p0
  | exception (Sys_error _ | Not_found | Failure _) -> ());
  let stats1 = if trace then stats () else "" in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  write_events ();
  print_obj
    [
      ("attempted", inum !attempted);
      ("failed", inum !failed);
      ("wrong", inum !wrong);
      ("errors", inum !errors);
      ("broken", jstr !broken);
      ( "measured",
        obj
          (acc_json measured
          @ best_json ~ops_per_item:ops [ measured_best ]
          @ [
              ("gc_minor", num (stat_field stats1 "gc:" -. stat_field stats0 "gc:"));
              ("inside_p50_us", num (stat_field stats1 "latency_us:"));
            ]) );
    ]

(* ------------------------------------------------------------------ *)
(* inproc: the serve workloads' layers, called one by one in-process
   with spans around each call. *)

(* The library's own Obs phase totals of compressR and compressB. *)
let phase_fields () =
  let totals = Obs.phase_totals () in
  List.map
    (fun (metric, phase) ->
      (metric, num (Option.value (List.assoc_opt phase totals) ~default:0.)))
    [
      ("core.compressR.scc_s", "compressR.scc");
      ("core.compressR.desc_pass_s", "compressR.desc_pass");
      ("core.compressR.anc_pass_s", "compressR.anc_pass");
      ("core.compressR.quotient_s", "compressR.quotient");
      ("core.compressR.reduce_s", "compressR.reduce");
      ("partition.refine_s", "compressB.refine");
      ("core.compressB.quotient_s", "compressB.quotient");
    ]

let inproc () =
  let workload = str "workload" in
  let reach = workload = "serve-reach" in
  let g, load_ns = span "graph.load" (fun () -> fst (Graph_io.load (str "graph"))) in
  Obs.set_tracing true;
  let root = if reach then "compressR" else "compressB" in
  let t0 = now () in
  let c, compress_ns =
    span ("core." ^ root) (fun () ->
        if reach then Compress_reach.compress g else Compress_bisim.compress g)
  in
  Obs.set_tracing false;
  add_obs_events ~root ~root_t0:t0;
  let snap = path "inproc.qc" in
  let (), save_ns = span "core.snapshot_save" (fun () -> Compressed_io.save_binary snap c) in
  let engine, engine_ns = span "server.engine_load" (fun () -> Server.load_engine snap) in
  let index_ns, index_bytes =
    if reach then
      let idx, ns = span "query.index_build" (fun () -> Compress_reach.index c) in
      (ns, Reach_index.memory_bytes idx)
    else (0, 0)
  in
  let frames = split_frames (read_file (str "frames")) in
  let expected = split_frames (read_file (str "expected")) in
  let gr = Compressed.graph c in
  let decode i =
    match SP.decode_request frames.(i) ~pos:0 with
    | Some (SP.Frame r, _) -> r
    | _ -> failwith "undecodable frame"
  in
  let eval = function
    | SP.Reach pairs -> SP.Answers (Server.eval engine pairs)
    | SP.Match p -> SP.Matches (Compress_bisim.answer p c)
    | _ -> failwith "unexpected verb"
  in
  let match_gr = function SP.Match p -> ignore (Bounded_sim.eval p gr) | _ -> () in
  (* Each call's best per frame over the passes, as in [best]. *)
  let nf = Array.length frames in
  let dec = Array.make nf max_int and enc = Array.make nf max_int in
  let ev = Array.make nf max_int and mt = Array.make nf max_int in
  let keep_min a i ns = if ns < a.(i) then a.(i) <- ns in
  (* One frame with the calls bare, and the same calls inside spans, with
     their durations kept: the difference is the tracing overhead. *)
  let bare i =
    let req = decode i in
    let resp = eval req in
    match_gr req;
    encode SP.add_response resp
  in
  let traced id i =
    let req, d = span ~id "server.decode" (fun () -> decode i) in
    let resp, e = span ~id "query.eval" (fun () -> eval req) in
    (match req with
    | SP.Match _ ->
        let (), m = span ~id "query.match" (fun () -> match_gr req) in
        keep_min mt i m
    | _ -> ());
    let out, w = span ~id "server.encode" (fun () -> encode SP.add_response resp) in
    keep_min dec i d;
    keep_min ev i e;
    keep_min enc i w;
    out
  in
  let wrong = ref 0 and bare_ns = ref 0 and traced_ns = ref 0 in
  let timed total f =
    let t0 = now () in
    let out = f () in
    total := !total + (now () - t0);
    out
  in
  let budget = now () + int_of_float (float "seconds" *. 1e9) in
  let id = ref 0 in
  (* At least one pass over the frames, more while the budget lasts.  Each
     frame first runs once untimed, so that both timed runs find it warm,
     then bare and traced in alternating order. *)
  while !id < Array.length frames || now () < budget do
    let i = !id mod Array.length frames in
    ignore (bare i : string);
    let run_bare () = timed bare_ns (fun () -> bare i) in
    let run_traced () = timed traced_ns (fun () -> traced !id i) in
    let a, b =
      if !id land 1 = 0 then
        let a = run_bare () in
        (a, run_traced ())
      else
        let b = run_traced () in
        (run_bare (), b)
    in
    if a <> expected.(i) then incr wrong;
    if b <> expected.(i) then incr wrong;
    incr id
  done;
  write_events ();
  let median_us a = median (Array.to_list (Array.map us_of_ns a)) in
  print_obj
    ([
      ("evaluated", inum !id);
      ("wrong", inum !wrong);
      ("graph.load_s", num (s_of_ns load_ns));
      ("core.compress_s", num (s_of_ns compress_ns));
      ("core.snapshot_save_s", num (s_of_ns save_ns));
      ("server.engine_load_s", num (s_of_ns engine_ns));
      ("query.index_build_s", num (s_of_ns index_ns));
      ("query.index_bytes", inum index_bytes);
      ("graph.quotient_bytes", inum (Digraph.memory_bytes gr));
      ("core.ratio", num (Compressed.ratio c ~original:g));
      ("server.decode_us", num (median_us dec));
      ("server.encode_us", num (median_us enc));
      ("query.eval_us", num (median_us ev));
      ("query.match_us", num (if reach then 0. else median_us mt));
      ( "trace.overhead_pct",
        num (float_of_int (!traced_ns - !bare_ns) /. float_of_int !bare_ns *. 100.) );
    ]
    @ phase_fields ())

(* ------------------------------------------------------------------ *)
(* maintain / check *)

(* Hypernodes renamed in order of their smallest member, so that two
   compressions of one graph compare with [Digraph.equal] whatever
   numbering each algorithm chose. *)
let canonical c =
  let gr = Compressed.graph c in
  let k = Digraph.n gr in
  let rename = Array.make k (-1) and next = ref 0 in
  let map =
    Array.map
      (fun h ->
        if rename.(h) < 0 then begin
          rename.(h) <- !next;
          incr next
        end;
        rename.(h))
      (Array.init (Compressed.original_n c) (Compressed.hypernode c))
  in
  let labels = Array.make k 0 in
  Array.iteri (fun h r -> labels.(r) <- Digraph.label gr h) rename;
  let edges = Digraph.fold_edges gr (fun acc u v -> (rename.(u), rename.(v)) :: acc) [] in
  (map, Digraph.make ~n:k ~labels edges)

let same_compression a b =
  let ma, ga = canonical a and mb, gb = canonical b in
  ma = mb && Digraph.equal ga gb

(* The inverse of a batch: applied after it, G is back where it was.
   [Update_gen.mixed] never inserts and deletes the same edge. *)
let inverse batch =
  List.rev_map
    (function Edge_update.Insert (u, v) -> Edge_update.Delete (u, v) | Edge_update.Delete (u, v) -> Edge_update.Insert (u, v))
    batch

(* The ΔG batches: [pairs] batches drawn from the seed against G
   (deletions hit live edges, insertions absent ones) before the timed
   loop, each followed by its inverse, so that G is back where it started
   after every pair and every batch still applies.  The loop cycles
   through these items so that each is applied many times (see [best]);
   every applied batch is logged for the oracle's replay. *)
let maintain () =
  let g, load_ns = span "graph.load" (fun () -> fst (Graph_io.load (str "graph"))) in
  let rng = Random.State.make [| int "seed"; 0x5DEECE6 |] in
  let trace = flag "trace" and every = int "check-every" and size = int "batch" in
  (* Only the last set-up is kept, so the others do not count in VmHWM. *)
  let last = ref None in
  let setups =
    List.init (int "setups") (fun _ ->
        last := None;
        Gc.compact ();
        let t0 = now () in
        let ir = Inc_reach.create g in
        let ib = Inc_bisim.create g in
        let dt = s_of_ns (now () - t0) in
        last := Some (ir, ib);
        dt)
  in
  let ir, ib = match !last with Some l -> l | None -> failwith "--setups must be at least 1" in
  let ratio = Compressed.ratio (Inc_reach.compressed ir) ~original:g in
  let quotient_bytes =
    Digraph.memory_bytes (Compressed.graph (Inc_reach.compressed ir))
    + Digraph.memory_bytes (Compressed.graph (Inc_bisim.compressed ib))
  in
  (* A traced run also re-times the set-up with the library's phase
     spans on, for the per-layer split. *)
  let setup_phases =
    if not trace then []
    else begin
      Obs.set_tracing true;
      let t0 = now () in
      let _, r = span "core.compressR" (fun () -> Compress_reach.compress g) in
      let t1 = now () in
      let _, b = span "core.compressB" (fun () -> Compress_bisim.compress g) in
      Obs.set_tracing false;
      add_obs_events ~root:"compressR" ~root_t0:t0;
      add_obs_events ~root:"compressB" ~root_t0:t1;
      [ ("core.compressR_s", num (s_of_ns r)); ("core.compressB_s", num (s_of_ns b)) ]
      @ phase_fields ()
    end
  in
  let items =
    Array.concat
      (List.init (int "pairs") (fun _ ->
           let batch = Update_gen.mixed rng g ~count:size ~insert_frac:0.6 in
           [| batch; inverse batch |]))
  in
  let n_items = Array.length items in
  let log = Buffer.create 65536 in
  let checkpoints = ref [] and b = ref 0 in
  (* Snapshots for the oracle, which runs in another process; taken
     outside the timed calls. *)
  let checkpoint () =
    Compressed_io.save_binary (path (Printf.sprintf "ck%d-r.qc" !b)) (Inc_reach.compressed ir);
    Compressed_io.save_binary (path (Printf.sprintf "ck%d-b.qc" !b)) (Inc_bisim.compressed ib);
    checkpoints := !b :: !checkpoints
  in
  let me = cpu_clock (Unix.getpid ()) in
  (* Latency and CPU are taken over the apply calls only, and a traced
     batch's span bookkeeping.  A traced run traces every other cycle
     through the items; the difference is the tracing overhead. *)
  let untraced = acc () and traced = acc () in
  let best_u = (best n_items, best n_items) and best_t = (best n_items, best n_items) in
  let upd = ref [] and rus = ref [] and bus = ref [] in
  let raff = ref [] and baff = ref [] and kept = ref [] in
  let shadow = ref (Inc_reach.graph ir) in
  let stop = now () + int_of_float (float "seconds" *. 1e9) in
  let p0 = read_proc "self" in
  while now () < stop do
    let i = !b mod n_items in
    let tr = trace && !b / n_items land 1 = 1 in
    let a = if tr then traced else untraced in
    let best_reach, best_bisim = if tr then best_t else best_u in
    let batch = items.(i) in
    Buffer.add_string log (batch_to_string batch);
    Buffer.add_string log "-\n";
    let c0 = cpu_ns me in
    let t0 = now () in
    ignore (Inc_reach.apply ir batch : Compressed.t);
    let t1 = now () in
    let c1 = cpu_ns me in
    ignore (Inc_bisim.apply ib batch : Compressed.t);
    let t2 = now () in
    (* A traced batch records its spans and stats inside the timed window,
       so that what tracing costs shows against the untraced batches. *)
    if tr then begin
      span_event ~id:!b "core.inc_reach" t0 t1;
      span_event ~id:!b "core.inc_bisim" t1 t2;
      rus := us_of_ns (t1 - t0) :: !rus;
      bus := us_of_ns (t2 - t1) :: !bus;
      (match Inc_reach.last_stats ir with
      | Some s ->
          raff := float_of_int s.Inc_reach.affected_members :: !raff;
          let all = s.Inc_reach.updates_kept + s.Inc_reach.updates_dropped in
          if all > 0 then
            kept := (float_of_int s.Inc_reach.updates_kept /. float_of_int all) :: !kept
      | None -> ());
      match Inc_bisim.last_stats ib with
      | Some s -> baff := float_of_int s.Inc_bisim.affected_members :: !baff
      | None -> ()
    end;
    let t3 = now () in
    let c3 = cpu_ns me in
    keep best_reach i ~lat:(t1 - t0) ~cpu:(c1 - c0);
    keep best_bisim i ~lat:(t3 - t1) ~cpu:(c3 - c1);
    a.ops <- a.ops + 1;
    a.wall_ns <- a.wall_ns + (t3 - t0);
    record a (t3 - t0);
    if trace then begin
      (* The shadow G follows every batch, outside the timed window; only
         traced batches time its update. *)
      let dels, ins =
        List.partition_map
          (function Edge_update.Delete (u, v) -> Left (u, v) | Edge_update.Insert (u, v) -> Right (u, v))
          batch
      in
      let update () = Digraph.add_edges (Digraph.remove_edges !shadow dels) ins in
      if not tr then shadow := update ()
      else begin
        let g', e = span ~id:!b "graph.edge_update" update in
        shadow := g';
        upd := us_of_ns e :: !upd
      end
    end;
    incr b;
    if !b mod every = 0 then checkpoint ()
  done;
  untraced.proc <- proc_sub (read_proc "self") p0;
  let layers =
    [
      ("graph.edge_update_us", num (median !upd));
      ("core.inc_reach_us", num (median !rus));
      ("core.inc_bisim_us", num (median !bus));
      ("core.inc_reach.affected_members", num (median !raff));
      ("core.inc_bisim.affected_members", num (median !baff));
      ("core.inc_reach.kept_ratio", num (median !kept));
    ]
  in
  let mode a (best_reach, best_bisim) =
    acc_json a @ best_json ~ops_per_item:1 [ best_reach; best_bisim ]
  in
  let phases_out =
    ("untraced", mode untraced best_u)
    :: (if trace then [ ("traced", mode traced best_t @ layers) ] else [])
  in
  (* The final state is always checked, however few batches ran. *)
  if !b > 0 && !b mod every <> 0 then checkpoint ();
  write_file (path "batches.txt") (Buffer.contents log);
  write_events ();
  print_obj
    ([
       ("attempted", inum !b);
       ("failed", "0");
       ("setup_s", "[" ^ String.concat ", " (List.map num setups) ^ "]");
       ("checkpoints", "[" ^ String.concat ", " (List.rev_map inum !checkpoints) ^ "]");
       ("core.ratio", num ratio);
       ("graph.quotient_bytes", inum quotient_bytes);
       ("graph.load_s", num (s_of_ns load_ns));
     ]
    @ setup_phases
    @ List.map (fun (k, fields) -> (k, obj fields)) phases_out)

let check () =
  let g = ref (fst (Graph_io.load (str "graph"))) in
  let batches = load_batches (str "batches") in
  let checkpoints =
    List.filter_map int_of_string_opt (String.split_on_char ',' (str "checkpoints"))
  in
  let applied = ref 0 and mismatches = ref 0 and recompress = ref [] in
  List.iter
    (fun ck ->
      while !applied < ck do
        g := Edge_update.apply !g batches.(!applied);
        incr applied
      done;
      let (r, b), ns =
        span "recompress" (fun () -> (Compress_reach.compress !g, Compress_bisim.compress !g))
      in
      recompress := s_of_ns ns :: !recompress;
      let saved kind = Compressed_io.load (path (Printf.sprintf "ck%d-%s.qc" ck kind)) in
      if not (same_compression r (saved "r")) then incr mismatches;
      if not (same_compression b (saved "b")) then incr mismatches)
    checkpoints;
  print_obj
    [
      ("checked", inum (List.length checkpoints));
      ("mismatches", inum !mismatches);
      ("recompress_s", num (median !recompress));
    ]

let () =
  parse_args ();
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "gen" -> gen ()
  | "client" -> client ()
  | "inproc" -> inproc ()
  | "maintain" -> maintain ()
  | "check" -> check ()
  | c ->
      prerr_endline ("harness: unknown command " ^ jstr c);
      exit 2
