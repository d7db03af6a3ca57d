(* The serve layer: wire-codec round-trips, strict rejection of truncated
   and corrupted frames, and the daemon end to end over a unix socket
   (answers checked against the BFS oracle, malformed-frame recovery,
   oversized-frame disconnect, stats/shutdown verbs).

   The daemon runs in a spawned domain inside this process; every test
   drains it through the protocol's shutdown verb and joins the domain,
   so a hang here is a drain bug, not a test artefact. *)

module SP = Server_protocol

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Codec helpers *)

let encode_request r =
  let b = Buffer.create 64 in
  SP.add_request b r;
  Buffer.contents b

let encode_response r =
  let b = Buffer.create 64 in
  SP.add_response b r;
  Buffer.contents b

let request_equal a b =
  match (a, b) with
  | SP.Reach p, SP.Reach q -> p = q
  | SP.Match p, SP.Match q -> Pattern_io.to_string p = Pattern_io.to_string q
  | SP.Stats, SP.Stats
  | SP.Metrics, SP.Metrics
  | SP.Dump, SP.Dump
  | SP.Shutdown, SP.Shutdown ->
      true
  | _ -> false

let response_equal a b =
  match (a, b) with
  | SP.Answers p, SP.Answers q -> p = q
  | SP.Matches p, SP.Matches q -> Pattern.result_equal p q
  | SP.Text s, SP.Text t | SP.Error s, SP.Error t -> s = t
  | _ -> false

let request_print = function
  | SP.Reach pairs ->
      Printf.sprintf "Reach [%s]"
        (String.concat "; "
           (Array.to_list
              (Array.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) pairs)))
  | SP.Match p -> "Match " ^ String.escaped (Pattern_io.to_string p)
  | SP.Stats -> "Stats"
  | SP.Metrics -> "Metrics"
  | SP.Dump -> "Dump"
  | SP.Shutdown -> "Shutdown"

let response_print = function
  | SP.Answers a ->
      Printf.sprintf "Answers [%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_bool a)))
  | SP.Matches None -> "Matches None"
  | SP.Matches (Some rows) ->
      Printf.sprintf "Matches (%d rows)" (Array.length rows)
  | SP.Text s -> "Text " ^ String.escaped s
  | SP.Error s -> "Error " ^ String.escaped s

let roundtrip_request r =
  let s = encode_request r in
  match SP.decode_request s ~pos:0 with
  | Some (SP.Frame r', next) when next = String.length s -> request_equal r r'
  | Some (SP.Frame _, next) ->
      QCheck2.Test.fail_reportf "frame consumed %d of %d bytes" next
        (String.length s)
  | Some (SP.Malformed msg, _) ->
      QCheck2.Test.fail_reportf "own encoding rejected: %s" msg
  | None -> QCheck2.Test.fail_report "own encoding judged incomplete"

let roundtrip_response r =
  let s = encode_response r in
  match SP.decode_response s ~pos:0 with
  | Some (SP.Frame r', next) when next = String.length s -> response_equal r r'
  | Some (SP.Frame _, next) ->
      QCheck2.Test.fail_reportf "frame consumed %d of %d bytes" next
        (String.length s)
  | Some (SP.Malformed msg, _) ->
      QCheck2.Test.fail_reportf "own encoding rejected: %s" msg
  | None -> QCheck2.Test.fail_report "own encoding judged incomplete"

(* ------------------------------------------------------------------ *)
(* Codec: unit round-trips *)

let test_roundtrip_variants () =
  let requests =
    [
      SP.Reach [||];
      SP.Reach [| (0, 0) |];
      SP.Reach [| (1, 2); (3, 4); (0xFFFF_FFFF, 0) |];
      SP.Match (Testutil.recommendation_pattern ());
      SP.Stats;
      SP.Metrics;
      SP.Dump;
      SP.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      Testutil.check_bool (request_print r) true (roundtrip_request r))
    requests;
  let responses =
    [
      SP.Answers [||];
      SP.Answers [| true; false; true |];
      SP.Matches None;
      SP.Matches (Some [||]);
      SP.Matches (Some [| [| 1; 2 |]; [||]; [| 7 |] |]);
      SP.Text "";
      SP.Text "route: grail\nqps: 12.5";
      SP.Error "malformed frame: unsupported protocol version 9";
    ]
  in
  List.iter
    (fun r ->
      Testutil.check_bool (response_print r) true (roundtrip_response r))
    responses

let test_u32_bounds () =
  (* A pair component outside the u32 range must be refused at encode
     time, not silently wrapped on the wire. *)
  Alcotest.check_raises "count overflow"
    (Invalid_argument "Server_protocol: u32 field out of range") (fun () ->
      ignore (encode_request (SP.Reach [| (0x1_0000_0000, 0) |])))

(* Matches frames are written in one pass at a length computed up front:
   the bytes must decode back, the prefix must equal the bytes that
   follow it, and a frame that fails a check must leave the buffer as it
   found it. *)
let test_matches_codec () =
  let cases =
    [
      None;
      Some [||];
      Some [| [||] |];
      Some [| [||]; [| 0 |]; [||] |];
      Some [| [| 1; 5; 9 |]; [| 0xFFFF_FFFF |] |];
      Some (Array.init 7 (fun r -> Array.init (r * 50) (fun i -> (r * 1000) + i)));
    ]
  in
  List.iter
    (fun m ->
      let r = SP.Matches m in
      let s = encode_response r in
      Testutil.check_bool (response_print r) true (roundtrip_response r);
      Testutil.check_int
        (response_print r ^ ": length prefix")
        (String.length s - 4)
        (Int32.to_int (String.get_int32_le s 0)))
    cases;
  let b = Buffer.create 16 in
  Buffer.add_string b "kept";
  (* 65 rows sharing one 64Ki-entry array: 16 MiB of entries, past the
     cap, from 512 KiB of heap. *)
  let row = Array.make 65536 0 in
  Alcotest.check_raises "body over the frame cap"
    (Invalid_argument "Server_protocol: frame body exceeds the frame cap")
    (fun () -> SP.add_response b (SP.Matches (Some (Array.make 65 row))));
  Alcotest.check_raises "entry out of u32 range"
    (Invalid_argument "Server_protocol: u32 field out of range") (fun () ->
      SP.add_response b (SP.Matches (Some [| [| 1; 2 |]; [| -1 |] |])));
  Alcotest.(check string) "failed encodes append nothing" "kept"
    (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Codec: corruption (unit) *)

let decode_req s = SP.decode_request s ~pos:0

let expect_malformed what s =
  match decode_req s with
  | Some (SP.Malformed _, next) when next = String.length s -> ()
  | Some (SP.Malformed _, next) ->
      Alcotest.failf "%s: malformed but next = %d, not %d" what next
        (String.length s)
  | Some (SP.Frame _, _) -> Alcotest.failf "%s: accepted" what
  | None -> Alcotest.failf "%s: judged incomplete" what

let test_corruption_cases () =
  let valid = encode_request (SP.Reach [| (5, 9) |]) in
  (* Wrong protocol version. *)
  let bad_version = Bytes.of_string valid in
  Bytes.set bad_version 4 '\009';
  expect_malformed "bad version" (Bytes.to_string bad_version);
  (* Unknown request tag. *)
  let bad_tag = Bytes.of_string valid in
  Bytes.set bad_tag 5 'Z';
  expect_malformed "unknown tag" (Bytes.to_string bad_tag);
  (* Declared length one byte short: the body read crosses the frame
     boundary and must be rejected, not read out of the next frame. *)
  let short = Bytes.of_string valid in
  Bytes.set_int32_le short 0
    (Int32.of_int (String.length valid - 4 - 1));
  expect_malformed "body crosses frame boundary"
    (Bytes.sub_string short 0 (Bytes.length short - 1));
  (* Trailing junk inside the declared frame. *)
  let padded = Bytes.of_string (valid ^ "\000") in
  Bytes.set_int32_le padded 0 (Int32.of_int (String.length valid - 4 + 1));
  expect_malformed "trailing bytes in frame" (Bytes.to_string padded);
  (* Frame too short to hold version and tag. *)
  expect_malformed "one-byte payload" "\001\000\000\000\001";
  (* An answers flag byte other than 0/1. *)
  let resp = Bytes.of_string (encode_response (SP.Answers [| true |])) in
  Bytes.set resp (Bytes.length resp - 1) '\002';
  (match SP.decode_response (Bytes.to_string resp) ~pos:0 with
  | Some (SP.Malformed _, _) -> ()
  | Some (SP.Frame _, _) -> Alcotest.fail "answer byte 2 accepted"
  | None -> Alcotest.fail "answer byte 2 judged incomplete");
  (* An oversized declared length cannot be resynchronised. *)
  let oversized = "\255\255\255\127rest never arrives" in
  Alcotest.check_raises "oversized length prefix"
    (SP.Parse_error
       (0, "declared frame length 2147483647 exceeds the 16777216-byte cap"))
    (fun () -> ignore (decode_req oversized))

(* A 'P' frame around raw pattern text, so the text need not parse. *)
let raw_pattern_frame text =
  let b = Buffer.create 64 in
  Buffer.add_int32_le b (Int32.of_int (String.length text + 6));
  Buffer.add_uint8 b SP.version;
  Buffer.add_char b 'P';
  Buffer.add_int32_le b (Int32.of_int (String.length text));
  Buffer.add_string b text;
  Buffer.contents b

(* A node count an 'H' reply could not carry is malformed, rejected
   before anything is sized by it; one row fewer than that bound needs
   only a count slot each, and a small pattern decodes. *)
let test_pattern_node_cap () =
  Testutil.check_int "4 bytes a row after the 7-byte header"
    ((SP.default_max_frame - 7) / 4)
    SP.max_pattern_nodes;
  expect_malformed "a hundred billion nodes" (raw_pattern_frame "n 100000000000");
  expect_malformed "one past the cap"
    (raw_pattern_frame (Printf.sprintf "n %d" (SP.max_pattern_nodes + 1)));
  match decode_req (raw_pattern_frame "n 3\ne 0 1 1\n") with
  | Some (SP.Frame (SP.Match p), _) ->
      Testutil.check_int "nodes" 3 (Pattern.node_count p)
  | _ -> Alcotest.fail "a three-node pattern did not decode"

let test_frame_ready () =
  let frame_ready s ~pos =
    SP.frame_ready (Bytes.of_string s) ~pos ~len:(String.length s)
  in
  let valid = encode_request SP.Stats in
  Testutil.check_bool "empty buffer" false (frame_ready "" ~pos:0);
  Testutil.check_bool "partial prefix" false (frame_ready "\006\000" ~pos:0);
  Testutil.check_bool "one byte short" false
    (frame_ready (String.sub valid 0 (String.length valid - 1)) ~pos:0);
  Testutil.check_bool "complete frame" true (frame_ready valid ~pos:0);
  Testutil.check_bool "oversized is ready (to fail)" true
    (frame_ready "\255\255\255\127" ~pos:0);
  Testutil.check_bool "past the frame" false
    (frame_ready valid ~pos:(String.length valid))

let test_stream_decode () =
  let reqs = [ SP.Reach [| (1, 2); (3, 4) |]; SP.Stats; SP.Shutdown ] in
  let stream = String.concat "" (List.map encode_request reqs) in
  let rec go pos acc =
    if pos = String.length stream then List.rev acc
    else
      match SP.decode_request stream ~pos with
      | Some (SP.Frame r, next) ->
          Testutil.check_bool "positions advance" true (next > pos);
          go next (r :: acc)
      | Some (SP.Malformed msg, _) -> Alcotest.failf "malformed: %s" msg
      | None -> Alcotest.fail "incomplete mid-stream"
  in
  let decoded = go 0 [] in
  Testutil.check_int "frame count" (List.length reqs) (List.length decoded);
  List.iter2
    (fun a b -> Testutil.check_bool (request_print a) true (request_equal a b))
    reqs decoded

(* ------------------------------------------------------------------ *)
(* Codec: qcheck properties *)

let request_gen =
  let open QCheck2.Gen in
  let reach =
    let* n = int_range 0 40 in
    let* pairs =
      array_size (pure n)
        (pair (int_range 0 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF))
    in
    pure (SP.Reach pairs)
  in
  frequency
    [ (5, reach); (1, pure SP.Stats); (1, pure SP.Metrics);
      (1, pure SP.Dump); (1, pure SP.Shutdown) ]

let response_gen =
  let open QCheck2.Gen in
  let answers =
    let* n = int_range 0 60 in
    let* a = array_size (pure n) bool in
    pure (SP.Answers a)
  in
  let text =
    let* s = string_size (int_range 0 120) in
    pure (SP.Text s)
  in
  let error =
    let* s = string_size (int_range 0 120) in
    pure (SP.Error s)
  in
  let matches =
    let* rows =
      list_size (int_range 0 5)
        (array_size (int_range 0 4) (int_range 0 100000))
    in
    pure (SP.Matches (Some (Array.of_list rows)))
  in
  frequency
    [ (4, answers); (2, text); (2, error); (2, matches);
      (1, pure (SP.Matches None)) ]

let qcheck_roundtrip_request =
  Testutil.qtest "request round-trips" (request_gen, request_print)
    roundtrip_request

let qcheck_roundtrip_response =
  Testutil.qtest "response round-trips" (response_gen, response_print)
    roundtrip_response

let qcheck_roundtrip_pattern =
  Testutil.qtest ~count:100 "pattern request round-trips"
    (Testutil.arbitrary_graph_pattern ())
    (fun (_g, p) -> roundtrip_request (SP.Match p))

let qcheck_truncation =
  Testutil.qtest "every strict prefix is incomplete"
    (request_gen, request_print) (fun r ->
      let s = encode_request r in
      for k = 0 to String.length s - 1 do
        match SP.decode_request (String.sub s 0 k) ~pos:0 with
        | None -> ()
        | Some _ ->
            QCheck2.Test.fail_reportf "prefix of %d/%d bytes decoded" k
              (String.length s)
      done;
      true)

let qcheck_corruption =
  let open QCheck2.Gen in
  let gen = triple request_gen (int_range 0 100000) (int_range 0 255) in
  let print (r, i, b) =
    Printf.sprintf "%s, byte %d := %d" (request_print r) i b
  in
  Testutil.qtest ~count:500 "single-byte corruption never desyncs"
    (gen, print) (fun (r, i, b) ->
      let s = Bytes.of_string (encode_request r) in
      Bytes.set s (i mod Bytes.length s) (Char.chr b);
      let s = Bytes.to_string s in
      match SP.decode_request s ~pos:0 with
      | None -> true (* corrupted length prefix now claims more bytes *)
      | Some (_, next) ->
          (* A frame or a malformed verdict must stay within the buffer:
             the decoder never reads past what it was given. *)
          next > 0 && next <= String.length s
      | exception SP.Parse_error _ -> true)

(* The daemon's in-place decoder and the tuple decoder share one 'R'
   parser: on any (possibly corrupted) frame they agree on the verdict
   and its message.  The columns start non-empty and sit inside a larger
   buffer, so appending, and leaving them untouched on a malformed
   frame, are both checked. *)
let qcheck_decode_into =
  let open QCheck2.Gen in
  let gen =
    quad request_gen (int_range 0 100000) (int_range 0 255) (int_range 0 7)
  in
  let print (r, i, b, pre) =
    Printf.sprintf "%s, byte %d := %d, %d pair(s) already decoded"
      (request_print r) i b pre
  in
  Testutil.qtest ~count:500 "decode_into agrees with decode_request"
    (gen, print) (fun (r, i, b, pre) ->
      let s = Bytes.of_string (encode_request r) in
      if i mod 3 > 0 then Bytes.set s (i mod Bytes.length s) (Char.chr b);
      let s = Bytes.to_string s in
      let p = SP.pairs_create () in
      let filler =
        encode_request (SP.Reach (Array.init pre (fun k -> (k, k + 1))))
      in
      (match
         SP.decode_into p (Bytes.of_string filler) ~pos:0
           ~len:(String.length filler)
       with
      | Some (SP.Frame (SP.Pairs k), _) when k = pre -> ()
      | _ -> QCheck2.Test.fail_report "filler frame did not decode");
      let buf = Bytes.of_string ("junk" ^ s ^ "tail") in
      let columns () =
        Array.init p.SP.len (fun k -> (p.SP.src.(k), p.SP.dst.(k)))
      in
      let before = columns () in
      let into =
        match SP.decode_into p buf ~pos:4 ~len:(4 + String.length s) with
        | v -> Ok v
        | exception SP.Parse_error (_, msg) -> Error msg
      in
      match (SP.decode_request s ~pos:0, into) with
      | exception SP.Parse_error (_, msg) -> into = Error msg
      | None, Ok None -> true
      | Some (SP.Malformed m, next), Ok (Some (SP.Malformed m', next')) ->
          m = m' && next' = next + 4 && columns () = before
      | ( Some (SP.Frame (SP.Reach pairs), next),
          Ok (Some (SP.Frame (SP.Pairs k), next')) ) ->
          k = Array.length pairs
          && next' = next + 4
          && columns () = Array.append before pairs
      | ( Some (SP.Frame req, next),
          Ok (Some (SP.Frame (SP.Request req'), next')) ) ->
          request_equal req req' && next' = next + 4 && columns () = before
      | _ -> QCheck2.Test.fail_report "the two decoders disagree")

(* ------------------------------------------------------------------ *)
(* Daemon end to end *)

let random_graph ~n ~m ~seed =
  let rng = Random.State.make [| seed |] in
  let labels = Array.init n (fun _ -> Random.State.int rng 3) in
  let edges =
    List.init m (fun _ -> (Random.State.int rng n, Random.State.int rng n))
  in
  Digraph.make ~n ~labels edges

let fresh_sock () =
  let path = Filename.temp_file "qpgc_serve" ".sock" in
  Sys.remove path;
  path

let rec wait_ready ready n =
  if not (Atomic.get ready) then (
    if n = 0 then Alcotest.fail "server did not become ready";
    Unix.sleepf 0.01;
    wait_ready ready (n - 1))

(* Run [f sock] against a daemon serving [engine] in a spawned domain;
   drain it with the shutdown verb afterwards and return [f]'s result
   together with the daemon's totals. *)
let with_server ?max_frame ?queue_max ?batch_max ?http_listeners ?slow_us
    ?sample_every ?frame_hook engine f =
  let sock = fresh_sock () in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.run ?max_frame ?queue_max ?batch_max ?http_listeners ?slow_us
          ?sample_every ?frame_hook
          ~on_ready:(fun () -> Atomic.set ready true)
          ~listeners:[ Server.Unix_socket sock ] engine)
  in
  let drain () =
    (try
       let c = Server_client.connect_unix sock in
       let (_ : string) = Server_client.shutdown c in
       Server_client.close c
     with _ -> () (* already draining *));
    let totals = Domain.join d in
    (try Sys.remove sock with Sys_error _ -> ());
    totals
  in
  match
    wait_ready ready 1000;
    f sock
  with
  | v -> (v, drain ())
  | exception e ->
      let (_ : Server.totals) = drain () in
      raise e

let with_client sock f =
  let c = Server_client.connect_unix sock in
  Fun.protect ~finally:(fun () -> Server_client.close c) (fun () -> f c)

let test_eval_in_process () =
  let g = random_graph ~n:120 ~m:400 ~seed:17 in
  let rng = Random.State.make [| 4 |] in
  let pairs = Reach_query.random_pairs rng g ~count:200 in
  Testutil.check_bool "engine eval matches the BFS oracle" true
    (Server.eval (Server.engine_of_graph g) pairs
    = Reach_query.eval_batch Reach_query.Bfs g pairs)

(* Text snapshots carry no kind byte; load_engine must still tell a text
   compression from a text graph (regression: the daemon used to feed
   text .qc files to the plain graph parser). *)
let test_load_engine_text () =
  let g = random_graph ~n:80 ~m:240 ~seed:29 in
  let rng = Random.State.make [| 7 |] in
  let pairs = Reach_query.random_pairs rng g ~count:150 in
  let oracle = Reach_query.eval_batch Reach_query.Bfs g pairs in
  let gfile = Filename.temp_file "qpgc_srv" ".g" in
  let qcfile = Filename.temp_file "qpgc_srv" ".qc" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ gfile; qcfile ])
    (fun () ->
      Graph_io.save gfile g;
      Compressed_io.save qcfile (Compress_reach.compress g);
      let eg = Server.load_engine gfile in
      Testutil.check_bool "text graph engine answers" true
        (Server.eval eg pairs = oracle);
      let ec = Server.load_engine qcfile in
      Testutil.check_bool "text .qc takes the compressed route" true
        (Server.engine_route ec = "index");
      Testutil.check_bool "text .qc engine answers" true
        (Server.eval ec pairs = oracle))

let test_e2e_reach () =
  let n = 300 in
  let g = random_graph ~n ~m:900 ~seed:11 in
  let rng = Random.State.make [| 99 |] in
  let pairs = Reach_query.random_pairs rng g ~count:500 in
  let expected = Reach_query.eval_batch Reach_query.Bfs g pairs in
  let (), totals =
    with_server (Server.engine_of_graph g) (fun sock ->
        with_client sock (fun c ->
            let half = Array.length pairs / 2 in
            let a = Server_client.reach c (Array.sub pairs 0 half) in
            let b =
              Server_client.reach c
                (Array.sub pairs half (Array.length pairs - half))
            in
            Testutil.check_bool "served answers match the BFS oracle" true
              (Array.append a b = expected);
            (* An out-of-range id draws an error reply, not an answer. *)
            match Server_client.reach c [| (0, n) |] with
            | _ -> Alcotest.fail "out-of-range id was answered"
            | exception Failure msg ->
                Testutil.check_bool "error names the bound" true
                  (contains ~sub:"out of range" msg)))
  in
  Testutil.check_int "queries counted" (Array.length pairs)
    totals.Server.queries;
  Testutil.check_bool "frames counted" true (totals.Server.frames >= 2);
  Testutil.check_bool "batches dispatched" true (totals.Server.batches >= 1)

let test_e2e_pattern () =
  let g = Testutil.recommendation () in
  let p = Testutil.recommendation_pattern () in
  let expected = Bounded_sim.eval p g in
  let (), _totals =
    with_server (Server.engine_of_graph g) (fun sock ->
        with_client sock (fun c ->
            Testutil.check_bool "served match equals direct evaluation" true
              (Pattern.result_equal (Server_client.match_pattern c p) expected)))
  in
  ()

let test_e2e_stats () =
  let g = random_graph ~n:80 ~m:200 ~seed:23 in
  let engine = Server.engine_of_graph g in
  let route = Server.engine_route engine in
  let (), _totals =
    with_server engine (fun sock ->
        with_client sock (fun c ->
            let (_ : bool array) = Server_client.reach c [| (0, 1) |] in
            let stats = Server_client.stats c in
            Testutil.check_bool "stats names the committed route" true
              (contains ~sub:("route: " ^ route) stats);
            Testutil.check_bool "stats reports latency quantiles" true
              (contains ~sub:"latency_us: p50" stats);
            let metrics = Server_client.metrics c in
            Testutil.check_bool "metrics exports the frame counter" true
              (contains ~sub:"frames" metrics)))
  in
  ()

(* Raw-socket client, for frames Server_client refuses to send. *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_send fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Testutil.check_int "short raw write" (String.length s) n

let raw_response fd buf =
  let scratch = Bytes.create 4096 in
  let rec go () =
    match SP.decode_response (Buffer.contents buf) ~pos:0 with
    | Some (d, next) ->
        let rest = Buffer.sub buf next (Buffer.length buf - next) in
        Buffer.clear buf;
        Buffer.add_string buf rest;
        d
    | None ->
        let n = Unix.read fd scratch 0 (Bytes.length scratch) in
        if n = 0 then Alcotest.fail "connection closed while awaiting reply";
        Buffer.add_subbytes buf scratch 0 n;
        go ()
  in
  go ()

let rec read_until_eof fd scratch =
  if Unix.read fd scratch 0 (Bytes.length scratch) > 0 then
    read_until_eof fd scratch

let test_e2e_malformed_recovery () =
  let g = random_graph ~n:50 ~m:100 ~seed:3 in
  let (), totals =
    with_server (Server.engine_of_graph g) (fun sock ->
        let fd = raw_connect sock in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            let buf = Buffer.create 256 in
            (* A delimited-but-invalid frame: bad version byte. *)
            let frame =
              Bytes.of_string (encode_request (SP.Reach [| (1, 2) |]))
            in
            Bytes.set frame 4 '\009';
            raw_send fd (Bytes.to_string frame);
            (match raw_response fd buf with
            | SP.Frame (SP.Error msg) ->
                Testutil.check_bool "reply names the malformed frame" true
                  (contains ~sub:"malformed" msg)
            | _ -> Alcotest.fail "expected an error reply");
            (* The stream is still in sync: the next frame is served. *)
            raw_send fd (encode_request (SP.Reach [| (7, 7) |]));
            match raw_response fd buf with
            | SP.Frame (SP.Answers a) ->
                Testutil.check_bool "reflexive answer after recovery" true
                  (a = [| true |])
            | _ -> Alcotest.fail "expected answers after recovery"))
  in
  Testutil.check_int "malformed frame counted" 1 totals.Server.malformed;
  Testutil.check_int "valid query still counted" 1 totals.Server.queries

let test_e2e_oversized_disconnect () =
  let g = random_graph ~n:50 ~m:100 ~seed:3 in
  let (), _totals =
    with_server (Server.engine_of_graph g) (fun sock ->
        let fd = raw_connect sock in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            let buf = Buffer.create 256 in
            (* Length prefix claiming 2 GiB: unrecoverable desync. *)
            raw_send fd "\255\255\255\127";
            (match raw_response fd buf with
            | SP.Frame (SP.Error msg) ->
                Testutil.check_bool "reply names the length cap" true
                  (contains ~sub:"exceeds the" msg)
            | _ -> Alcotest.fail "expected an error reply");
            (* ... after which the server hangs up. *)
            read_until_eof fd (Bytes.create 4096)))
  in
  ()

(* Slow frames must land in the flight recorder with their trace ids.
   The latency is injected through [frame_hook] (test-only), so the slow
   path is exercised deterministically; sampling is off, so the dump
   frame itself — fast — must stay out of the ring. *)
let test_e2e_flight_recorder () =
  let g = random_graph ~n:40 ~m:80 ~seed:13 in
  let hook = function 'R' -> Unix.sleepf 0.005 | _ -> () in
  let (), _totals =
    with_server ~slow_us:1000.0 ~sample_every:0 ~frame_hook:hook
      (Server.engine_of_graph g)
      (fun sock ->
        with_client sock (fun c ->
            let (_ : bool array) = Server_client.reach c [| (1, 2) |] in
            let dump = Server_client.dump c in
            Testutil.check_bool "slow reach frame recorded" true
              (contains ~sub:"\"name\":\"reach\"" dump);
            Testutil.check_bool "entry carries a trace id" true
              (contains ~sub:"\"trace_id\":" dump);
            Testutil.check_bool "entry is marked slow" true
              (contains ~sub:"\"slow\":true" dump);
            Testutil.check_bool "fast dump frame not recorded" true
              (not (contains ~sub:"\"name\":\"dump\"" dump))))
  in
  ()

(* ------------------------------------------------------------------ *)
(* The flat reach path end to end

   Scripted byte streams over a raw socket: pipelined frames, a frame
   split mid-pair, empty and out-of-range batches, count fields that lie
   and a pattern frame among reach frames.  The daemon owes one reply
   per frame in FIFO order, so the whole reply stream must equal, byte
   for byte, the concatenation of the replies the codec and the
   in-process engine give — and every answer must match the BFS
   oracle. *)

let reach_frame pairs = encode_request (SP.Reach pairs)

(* The frame's count field (bytes 6..9) rewritten, so the body no
   longer matches it. *)
let lying_count frame count =
  let b = Bytes.of_string frame in
  Bytes.set_int32_le b 6 (Int32.of_int count);
  Bytes.to_string b

let malformed_reply frame =
  match SP.decode_request frame ~pos:0 with
  | Some (SP.Malformed msg, next) when next = String.length frame ->
      encode_response (SP.Error ("malformed frame: " ^ msg))
  | _ -> Alcotest.fail "a scripted frame meant to be malformed decoded"

(* Read exactly [k] bytes, or fail once the socket stays quiet. *)
let read_exactly fd k =
  let b = Bytes.create k in
  let rec go off =
    if off < k then
      match Unix.read fd b off (k - off) with
      | 0 -> Alcotest.failf "connection closed after %d of %d reply bytes" off k
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.failf "no reply after %d of %d bytes" off k
  in
  go 0;
  Bytes.to_string b

(* [writes] go out one [write] each, with a pause between them so the
   daemon reads each on its own; the replies are then read back whole. *)
let exchange sock writes =
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      List.iteri
        (fun i (bytes, _) ->
          if i > 0 then Unix.sleepf 0.01;
          raw_send fd bytes)
        writes;
      let expected = String.concat "" (List.map snd writes) in
      read_exactly fd (String.length expected) = expected)

(* The script's writes, each with the reply bytes owed once it is in.
   [answers pairs] is the expected 'A' reply; [pattern_reply] the 'H'
   reply to [pattern]. *)
let flat_script ~rng ~n ~answers ~pattern ~pattern_reply =
  let random_pairs k =
    Array.init k (fun _ -> (Random.State.int rng n, Random.State.int rng n))
  in
  let batch () = random_pairs (Random.State.int rng 40) in
  let reach pairs = (reach_frame pairs, answers pairs) in
  let one_write fs =
    (String.concat "" (List.map fst fs), String.concat "" (List.map snd fs))
  in
  (* Several frames in one write, an empty batch among them. *)
  let pipelined = one_write [ reach (batch ()); reach [||]; reach (batch ()) ] in
  (* One frame in two writes, cut inside the second pair's source id. *)
  let split =
    let pairs = random_pairs (3 + Random.State.int rng 20) in
    let f = reach_frame pairs in
    let cut = 10 + 8 + 2 in
    [
      (String.sub f 0 cut, "");
      (String.sub f cut (String.length f - cut), answers pairs);
    ]
  in
  (* Five frames in one write; the third names a node past the bound. *)
  let out_of_range =
    let bad = random_pairs (1 + Random.State.int rng 20) in
    let j = Random.State.int rng (Array.length bad) in
    let u, v = bad.(j) in
    bad.(j) <- (if Random.State.bool rng then (n, v) else (u, n + 17));
    let err =
      encode_response
        (SP.Error
           (Printf.sprintf "query %d: node id out of range (node count %d)" j n))
    in
    one_write
      [
        reach (batch ()); reach (batch ()); (reach_frame bad, err);
        reach (batch ()); reach (batch ());
      ]
  in
  (* Count fields that lie: too few pairs claimed, too many, and a count
     whose pairs could never fit a frame.  Each draws the decoder's own
     verdict, and the stream stays in sync. *)
  let lying =
    let f = reach_frame (random_pairs 3) in
    one_write
      (List.map
         (fun count ->
           let bad = lying_count f count in
           (bad, malformed_reply bad))
         [ 2; 4; 0xFFFFFFFF ]
      @ [ reach (batch ()) ])
  in
  (* A pattern frame between reach frames. *)
  let mixed =
    one_write
      [
        reach (batch ());
        (encode_request (SP.Match pattern), pattern_reply);
        reach (batch ());
      ]
  in
  [ pipelined ] @ split @ [ out_of_range; lying; mixed ]

let test_e2e_flat_path () =
  let n = 400 in
  let g = random_graph ~n ~m:1200 ~seed:71 in
  let pattern =
    Pattern.make ~n:2 ~labels:[| 0; 1 |] ~edges:[ (0, 1, Pattern.Bounded 1) ]
  in
  let oracle_match = Bounded_sim.eval pattern g in
  let c = Compress_reach.compress g in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let engines =
            [
              ( "graph",
                Server.engine_of_graph ~pool g,
                Compress_bisim.answer pattern (Compress_bisim.compress g) );
              ( "compressed",
                Server.engine_of_compressed ~pool c,
                Compress_bisim.answer pattern c );
            ]
          in
          List.iter
            (fun (name, engine, matched) ->
              if name = "graph" then
                Testutil.check_bool "pattern answer matches Bounded_sim" true
                  (Pattern.result_equal matched oracle_match);
              let pattern_reply = encode_response (SP.Matches matched) in
              List.iter
                (fun batch_max ->
                  let label =
                    Printf.sprintf "%s engine, %d domain(s), batch_max %d" name
                      domains batch_max
                  in
                  let answers pairs =
                    let a = Server.eval engine pairs in
                    if a <> Reach_query.eval_batch Reach_query.Bfs g pairs then
                      Alcotest.failf "%s: in-process answers differ from BFS"
                        label;
                    encode_response (SP.Answers a)
                  in
                  let rng = Random.State.make [| domains; batch_max |] in
                  let script =
                    flat_script ~rng ~n ~answers ~pattern ~pattern_reply
                  in
                  let ok, _totals =
                    with_server ~batch_max engine (fun sock ->
                        exchange sock script)
                  in
                  Testutil.check_bool
                    (label ^ ": replies byte for byte")
                    true ok)
                [ 1; 7; 8192 ])
            engines))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* The flat pattern path end to end

   The daemon matches each pattern into its engine's reused bitsets and
   writes the 'H' frame straight from them.  Its reply bytes must equal
   the tuple path's encoding of [Compress_bisim.answer], which must equal
   the matches on G (Theorem 4).  The patterns of one case go out in a
   single write, so they are answered in one cycle on one engine, a
   wider one after a narrower one: rows left over in the scratch would
   show in the bytes. *)

let pattern_case_gen =
  let open QCheck2.Gen in
  let* g = Testutil.digraph_gen ~max_n:30 () in
  let* seed = int_range 0 100_000 in
  let rng = Random.State.make [| seed |] in
  let random ~nodes ~edges =
    Pattern_gen.random rng g ~nodes ~edges ~max_bound:3 ~unbounded_prob:0.3
  in
  let label () = Random.State.int rng (Digraph.label_count g) in
  let bound () =
    match Random.State.int rng 4 with
    | 0 -> Pattern.Unbounded
    | k -> Pattern.Bounded k
  in
  let patterns =
    [
      random ~nodes:(1 + Random.State.int rng 2) ~edges:1;
      random ~nodes:(4 + Random.State.int rng 3) ~edges:(4 + Random.State.int rng 6);
      (* A cycle through a self-loop. *)
      Pattern.make ~n:2 ~labels:[| label (); label () |]
        ~edges:[ (0, 0, bound ()); (0, 1, bound ()); (1, 0, bound ()) ];
      (* A label no node carries: no match. *)
      Pattern.make ~n:3
        ~labels:[| label (); Digraph.label_count g; label () |]
        ~edges:[ (0, 1, Pattern.Bounded 1); (1, 2, bound ()) ];
      random ~nodes:3 ~edges:2;
    ]
  in
  pure (g, patterns)

let pattern_case_print (g, patterns) =
  Format.asprintf "%a@.%a" Digraph.pp g
    (Format.pp_print_list ~pp_sep:Format.pp_print_newline Pattern.pp)
    patterns

let flat_pattern_prop (g, patterns) =
  let c = Compress_bisim.compress g in
  let expected =
    List.map
      (fun p ->
        let answer = Compress_bisim.answer p c in
        if not (Pattern.result_equal answer (Bounded_sim.eval p g)) then
          QCheck2.Test.fail_reportf "answer on Gr differs from G for@.%a"
            Pattern.pp p;
        encode_response (SP.Matches answer))
      patterns
  in
  let request = String.concat "" (List.map (fun p -> encode_request (SP.Match p)) patterns) in
  let reply = String.concat "" expected in
  List.iter
    (fun (kind, format) ->
      let file = Filename.temp_file "qpgc_flat" ".qc" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          Compressed_io.save_binary ~graph_format:format file c;
          let engine = Server.load_engine ~mmap:true file in
          let ok, _totals =
            with_server engine (fun sock -> exchange sock [ (request, reply) ])
          in
          if not ok then
            QCheck2.Test.fail_reportf "'C' snapshot over a '%c' graph: 'H' replies differ"
              kind))
    [ ('G', Digraph.Flat); ('M', Digraph.Mapped); ('V', Digraph.Varint) ];
  true

let qcheck_flat_pattern =
  Testutil.qtest ~count:25 "flat pattern replies equal the tuple path and G"
    (pattern_case_gen, pattern_case_print)
    flat_pattern_prop

(* One hypernode with 300,000 members, asked a 16-node pattern without
   edges: every row is all of V, 19.2 MB in all, over the 16 MiB frame
   cap.  The daemon must refuse that reply with an 'E' frame and keep
   serving. *)
let test_e2e_oversize_reply () =
  let members = 300_000 in
  let c =
    Compressed.v
      ~graph:(Digraph.make ~n:1 ~labels:[| 0 |] [])
      ~node_map:(Array.make members 0)
  in
  let engine = Server.engine_of_compressed c in
  Testutil.check_bool "info counts |Vr|, not |Vr| + |Er|" true
    (contains ~sub:"1 hypernode(s) for 300000 original node(s)"
       (Server.engine_info engine));
  let pattern = Pattern.make ~n:16 ~labels:(Array.make 16 0) ~edges:[] in
  let pairs = [| (0, members - 1); (7, 7); (members - 1, 3) |] in
  let (), totals =
    with_server engine (fun sock ->
        with_client sock (fun cl ->
            (match Server_client.match_pattern cl pattern with
            | _ -> Alcotest.fail "a reply over the frame cap was sent"
            | exception Failure msg ->
                Testutil.check_bool "the error names the cap" true
                  (contains ~sub:"frame cap" msg));
            Testutil.check_bool "reach still answered" true
              (Server_client.reach cl pairs = Server.eval engine pairs);
            Testutil.check_bool "stats describe |Vr| hypernodes" true
              (contains ~sub:"over the 1-hypernode compression"
                 (Server_client.stats cl))))
  in
  (* P, R, S, and the shutdown verb that drained the daemon. *)
  Testutil.check_int "frames counted" 4 totals.Server.frames

(* The scrape plane: raw HTTP/1.0 over a second unix socket served by
   the same select loop. *)
let http_get hsock req =
  let fd = raw_connect hsock in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      raw_send fd req;
      let buf = Buffer.create 1024 in
      let scratch = Bytes.create 4096 in
      let rec go () =
        let k = Unix.read fd scratch 0 (Bytes.length scratch) in
        if k > 0 then begin
          Buffer.add_subbytes buf scratch 0 k;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let test_e2e_http_scrape () =
  let g = random_graph ~n:60 ~m:150 ~seed:41 in
  let hsock = fresh_sock () in
  let (), _totals =
    with_server
      ~http_listeners:[ Server.Unix_socket hsock ]
      (Server.engine_of_graph g)
      (fun sock ->
        with_client sock (fun c ->
            let (_ : bool array) = Server_client.reach c [| (0, 1) |] in
            ());
        let metrics = http_get hsock "GET /metrics HTTP/1.0\r\n\r\n" in
        Testutil.check_bool "metrics answers 200" true
          (contains ~sub:"HTTP/1.0 200" metrics);
        Testutil.check_bool "metrics is prometheus text" true
          (contains ~sub:"text/plain; version=0.0.4" metrics);
        Testutil.check_bool "lifetime families exported" true
          (contains ~sub:"qpgc_server_frames" metrics);
        Testutil.check_bool "rolling qps gauge exported" true
          (contains ~sub:"qpgc_server_qps_" metrics);
        Testutil.check_bool "rolling p99 gauge exported" true
          (contains ~sub:"qpgc_server_latency_us_p99_" metrics);
        let health = http_get hsock "GET /healthz HTTP/1.0\r\n\r\n" in
        Testutil.check_bool "healthz ok" true
          (contains ~sub:"HTTP/1.0 200" health && contains ~sub:"ok" health);
        let ready = http_get hsock "GET /readyz HTTP/1.0\r\n\r\n" in
        Testutil.check_bool "readyz ready" true
          (contains ~sub:"HTTP/1.0 200" ready && contains ~sub:"ready" ready);
        let missing = http_get hsock "GET /nope HTTP/1.0\r\n\r\n" in
        Testutil.check_bool "unknown path is 404" true
          (contains ~sub:"HTTP/1.0 404" missing);
        let post = http_get hsock "POST /metrics HTTP/1.0\r\n\r\n" in
        Testutil.check_bool "non-GET is 405" true
          (contains ~sub:"HTTP/1.0 405" post))
  in
  try Sys.remove hsock with Sys_error _ -> ()

(* Read a scrape reply to EOF.  A receive timeout turns a connection the
   daemon never closes into a failure instead of a hang; a reset after
   the reply (the daemon closed with input unread) also ends it. *)
let http_read_all fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let buf = Buffer.create 1024 in
  let scratch = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 -> Buffer.contents buf
    | k ->
        Buffer.add_subbytes buf scratch 0 k;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Buffer.contents buf
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "the daemon did not close the scrape connection"
  in
  go ()

let count_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else go (i + 1) (if String.sub s i n = sub then acc + 1 else acc)
  in
  go 0 0

(* Run [f hsock raw_fd] against a daemon with a scrape listener, [raw_fd]
   a fresh raw connection to it; the protocol socket is passed too. *)
let with_scrape_conn g f =
  let hsock = fresh_sock () in
  let v, _totals =
    with_server
      ~http_listeners:[ Server.Unix_socket hsock ]
      (Server.engine_of_graph g)
      (fun sock ->
        let fd = raw_connect hsock in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> f sock fd))
  in
  (try Sys.remove hsock with Sys_error _ -> ());
  v

(* A request split over two writes, with a pause between them, is parsed
   when its second half arrives and answered exactly once. *)
let test_e2e_http_split_request () =
  with_scrape_conn (random_graph ~n:20 ~m:40 ~seed:7) (fun sock fd ->
      raw_send fd "GET /healthz HT";
      Unix.sleepf 0.1;
      raw_send fd "TP/1.0\r\n\r\n";
      let reply = http_read_all fd in
      Testutil.check_int "one status line" 1 (count_sub ~sub:"HTTP/1.0 " reply);
      Testutil.check_bool "healthz answered" true
        (contains ~sub:"HTTP/1.0 200" reply && contains ~sub:"\r\n\r\nok\n" reply);
      with_client sock (fun c ->
          Testutil.check_bool "one scrape counted" true
            (contains ~sub:"scrapes: 1\n" (Server_client.stats c))))

(* More than [Server_http.max_header] bytes with no header terminator:
   a 400, then the daemon closes the connection. *)
let test_e2e_http_header_too_large () =
  with_scrape_conn (random_graph ~n:20 ~m:40 ~seed:8) (fun _sock fd ->
      raw_send fd (String.make (Server_http.max_header + 808) 'x');
      let reply = http_read_all fd in
      Testutil.check_bool "400 status" true (contains ~sub:"HTTP/1.0 400" reply);
      Testutil.check_bool "reason given" true
        (contains ~sub:"header block too large" reply))

let test_e2e_shutdown_ack () =
  let g = random_graph ~n:20 ~m:40 ~seed:5 in
  let (), totals =
    with_server (Server.engine_of_graph g) (fun sock ->
        with_client sock (fun c ->
            Testutil.check_bool "shutdown acknowledged" true
              (Server_client.shutdown c = "draining")))
  in
  Testutil.check_int "no queries were needed" 0 totals.Server.queries;
  Testutil.check_bool "the connection was accepted" true (totals.Server.accepted >= 1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "codec",
        [
          Alcotest.test_case "variant round-trips" `Quick
            test_roundtrip_variants;
          Alcotest.test_case "u32 encode bounds" `Quick test_u32_bounds;
          Alcotest.test_case "matches one-pass encoding" `Quick
            test_matches_codec;
          Alcotest.test_case "corruption verdicts" `Quick test_corruption_cases;
          Alcotest.test_case "pattern node count over the reply cap" `Quick
            test_pattern_node_cap;
          Alcotest.test_case "frame_ready" `Quick test_frame_ready;
          Alcotest.test_case "multi-frame stream" `Quick test_stream_decode;
          qcheck_roundtrip_request;
          qcheck_roundtrip_response;
          qcheck_roundtrip_pattern;
          qcheck_truncation;
          qcheck_corruption;
          qcheck_decode_into;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "in-process eval oracle" `Quick
            test_eval_in_process;
          Alcotest.test_case "text snapshot dispatch" `Quick
            test_load_engine_text;
          Alcotest.test_case "reach batches vs BFS oracle" `Quick
            test_e2e_reach;
          Alcotest.test_case "pattern query" `Quick test_e2e_pattern;
          Alcotest.test_case "stats and metrics verbs" `Quick test_e2e_stats;
          Alcotest.test_case "malformed frame recovery" `Quick
            test_e2e_malformed_recovery;
          Alcotest.test_case "oversized frame disconnects" `Quick
            test_e2e_oversized_disconnect;
          Alcotest.test_case "flat reach path, scripted streams" `Quick
            test_e2e_flat_path;
          qcheck_flat_pattern;
          Alcotest.test_case "oversize pattern reply answers E" `Quick
            test_e2e_oversize_reply;
          Alcotest.test_case "flight recorder captures slow frames" `Quick
            test_e2e_flight_recorder;
          Alcotest.test_case "http scrape endpoints" `Quick
            test_e2e_http_scrape;
          Alcotest.test_case "http request split over two writes" `Quick
            test_e2e_http_split_request;
          Alcotest.test_case "http header block too large" `Quick
            test_e2e_http_header_too_large;
          Alcotest.test_case "shutdown verb drains" `Quick
            test_e2e_shutdown_ack;
        ] );
    ]
