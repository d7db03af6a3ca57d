(* Tests for the compress-then-index reachability engine: the index layer
   (tree-cover / 2-hop / GRAIL over a graph or a compression), its binary
   snapshots, the adaptive planner, and the bidirectional BFS rewrite.

   The ground truth everywhere is the BFS oracle: every engine must return
   exactly [Reach_query.eval Bfs]'s bit for every pair, on the original
   graph and on the compressR output alike. *)

let qtest = Testutil.qtest
let arb_g = Testutil.arbitrary_digraph ()

let bfs_oracle g ~source ~target =
  Reach_query.eval Reach_query.Bfs g ~source ~target

let all_pairs_agree ?name g eval =
  let n = Digraph.n g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if eval ~source:u ~target:v <> bfs_oracle g ~source:u ~target:v then begin
        (match name with
        | Some name ->
            Printf.eprintf "%s disagrees with BFS on (%d, %d)\n" name u v
        | None -> ());
        ok := false
      end
    done
  done;
  !ok

let every_algorithm f = List.for_all f Reach_index.all_algorithms

(* A flat entry point answers the slice [off .. off+len) of its id columns
   into the same bytes of its output and leaves every other byte alone.
   The slice holds all n² pairs of [g]; the ids around it are filler. *)
let flat_agrees ~off g into per_query =
  let n = Digraph.n g in
  let len = n * n in
  let total = off + len + 3 in
  let src = Array.make total 0 and dst = Array.make total 0 in
  for i = 0 to len - 1 do
    src.(off + i) <- i / n;
    dst.(off + i) <- i mod n
  done;
  let out = Bytes.make total 'x' in
  into ~src ~dst ~off ~len out;
  let ok = ref true in
  for i = 0 to total - 1 do
    let expected =
      if i < off || i >= off + len then 'x'
      else if per_query ~source:src.(i) ~target:dst.(i) then '\001'
      else '\000'
    in
    if Bytes.get out i <> expected then ok := false
  done;
  !ok

let arb_g_off =
  let gen, print = arb_g in
  (QCheck2.Gen.pair gen (QCheck2.Gen.int_range 1 5),
   fun (g, off) -> Printf.sprintf "off = %d\n%s" off (print g))

(* ------------------------------------------------------------------ *)
(* Reach_index over the graph itself and over compressR *)

let index_unit () =
  (* cycle 0-1-2, self-loop on 3, 3 -> 4, isolated 5 *)
  let g =
    Digraph.make ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 3); (3, 4); (2, 3) ]
  in
  List.iter
    (fun algorithm ->
      let name = Reach_index.algorithm_name algorithm in
      let idx = Reach_index.build ~algorithm g in
      Alcotest.(check bool)
        (name ^ " matches BFS on all pairs")
        true
        (all_pairs_agree ~name g (Reach_index.query idx));
      Alcotest.(check int) (name ^ " indexed_n") 6 (Reach_index.indexed_n idx);
      Alcotest.(check int) (name ^ " original_n") 6 (Reach_index.original_n idx);
      Alcotest.(check bool)
        (name ^ " memory positive") true
        (Reach_index.memory_bytes idx > 0))
    Reach_index.all_algorithms

let index_empty_graph () =
  List.iter
    (fun algorithm ->
      let idx = Reach_index.build ~algorithm Digraph.empty in
      Alcotest.(check int) "no nodes" 0 (Reach_index.indexed_n idx);
      Alcotest.(check (array bool))
        "empty batch" [||]
        (Reach_query.eval_pairs (Reach_index.query_into idx) [||]))
    Reach_index.all_algorithms

let index_build_rejects_bad_map () =
  let g = Digraph.make ~n:2 [ (0, 1) ] in
  match Reach_index.build ~node_map:[| 0; 5 |] g with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let index_props =
  [
    qtest "every index over G matches BFS on all pairs" arb_g (fun g ->
        every_algorithm (fun algorithm ->
            let idx = Reach_index.build ~algorithm g in
            all_pairs_agree g (Reach_index.query idx)));
    qtest "every index over compressR matches BFS on all pairs" arb_g (fun g ->
        let c = Compress_reach.compress g in
        every_algorithm (fun algorithm ->
            let idx = Compress_reach.index ~algorithm c in
            all_pairs_agree g (Reach_index.query idx)));
    qtest "query_batch equals per-query answers for every domain count"
      arb_g
      (fun g ->
        let c = Compress_reach.compress g in
        let n = Digraph.n g in
        let pairs =
          Array.init (n * n) (fun i -> (i / n, i mod n))
        in
        every_algorithm (fun algorithm ->
            let idx = Compress_reach.index ~algorithm c in
            let expected =
              Array.map
                (fun (source, target) -> Reach_index.query idx ~source ~target)
                pairs
            in
            List.for_all
              (fun domains ->
                Pool.with_pool ~domains (fun pool ->
                    Reach_query.eval_pairs (Reach_index.query_into ~pool idx) pairs
                    = expected))
              [ 1; 2; 4 ]));
    qtest
      "query_into at an offset equals per-query answers for every domain count"
      arb_g_off
      (fun (g, off) ->
        let c = Compress_reach.compress g in
        every_algorithm (fun algorithm ->
            let idx = Compress_reach.index ~algorithm c in
            List.for_all
              (fun domains ->
                Pool.with_pool ~domains (fun pool ->
                    flat_agrees ~off g
                      (Reach_index.query_into ~pool idx)
                      (Reach_index.query idx)))
              [ 1; 2; 4 ]));
    (* GRAIL's randomized traversals fan out over the pool; the per-
       traversal seeding must make the labeling — and therefore the
       snapshot bytes — independent of the domain count. *)
    qtest "index build is deterministic across domain counts" arb_g (fun g ->
        every_algorithm (fun algorithm ->
            let snap pool =
              Reach_index_io.to_binary_string
                (Reach_index.build ~pool ~algorithm g)
            in
            let reference = Pool.with_pool ~domains:1 snap in
            List.for_all
              (fun domains ->
                Pool.with_pool ~domains (fun pool ->
                    String.equal (snap pool) reference))
              [ 2; 4 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Snapshots: roundtrip, canonicality, rejection of malformed input *)

let snapshot_of g algorithm =
  Reach_index_io.to_binary_string
    (Compress_reach.index ~algorithm (Compress_reach.compress g))

let format_name = function
  | Digraph.Flat -> "flat"
  | Digraph.Mapped -> "mmap"
  | Digraph.Varint -> "varint"

(* Every snapshot kind read through the one codec: the three graph kinds,
   and 'C' and 'I' over each embedded graph format.  Each comes with its
   string parser and its file loader, which opens with mmap; both must
   accept the whole snapshot and reject every proper prefix. *)
let every_kind g =
  let c = Compress_reach.compress g in
  List.concat_map
    (fun format ->
      let over = format_name format in
      ( over ^ " graph",
        Graph_io.to_snapshot_string ~format g,
        (fun s -> ignore (Graph_io.of_binary_string s)),
        fun path -> ignore (Graph_io.load ~mmap:true path) )
      :: ( "'C' over " ^ over,
           Compressed_io.to_binary_string ~graph_format:format c,
           (fun s -> ignore (Compressed_io.of_binary_string s)),
           fun path -> ignore (Compressed_io.load ~mmap:true path) )
      :: List.map
           (fun algorithm ->
             ( Printf.sprintf "'I' %s over %s"
                 (Reach_index.algorithm_name algorithm)
                 over,
               Reach_index_io.to_binary_string ~graph_format:format
                 (Compress_reach.index ~algorithm c),
               (fun s -> ignore (Reach_index_io.of_binary_string s)),
               fun path -> ignore (Reach_index_io.load ~mmap:true path) ))
           Reach_index.all_algorithms)
    [ Digraph.Flat; Digraph.Mapped; Digraph.Varint ]

let io_truncation () =
  let path = Filename.temp_file "qpgc_trunc" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun (name, s, parse, load) ->
          let rejects what input =
            (match parse input with
            | () -> Alcotest.failf "%s: %s accepted" name what
            | exception Graph_io.Parse_error _ -> ());
            Out_channel.with_open_bin path (fun oc -> output_string oc input);
            match load path with
            | () -> Alcotest.failf "%s: %s accepted by an mmap load" name what
            | exception Graph_io.Parse_error _ -> ()
          in
          parse s;
          Out_channel.with_open_bin path (fun oc -> output_string oc s);
          load path;
          for len = 0 to String.length s - 1 do
            rejects
              (Printf.sprintf "prefix of %d/%d bytes" len (String.length s))
              (String.sub s 0 len)
          done;
          let flip i =
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code s.[i] lxor 0x80));
            Bytes.to_string b
          in
          rejects "flipped kind byte" (flip 4);
          rejects "flipped version byte" (flip 5))
        (every_kind (Testutil.recommendation ())))

let io_corruption () =
  let g = Testutil.recommendation () in
  let s = snapshot_of g Reach_index.Tree_cover in
  let expect what s =
    match Reach_index_io.of_binary_string s with
    | _ -> Alcotest.fail ("expected Parse_error: " ^ what)
    | exception Graph_io.Parse_error _ -> ()
  in
  let patch i c =
    let b = Bytes.of_string s in
    Bytes.set b i c;
    Bytes.to_string b
  in
  expect "empty input" "";
  expect "bad magic" ("XPGC" ^ String.sub s 4 (String.length s - 4));
  expect "graph kind where index expected" (patch 4 'G');
  expect "unsupported version" (patch 5 '\007');
  expect "unknown algorithm tag" (patch 8 '\007');
  expect "trailing bytes" (s ^ "\000");
  (* An indexed node count (bytes 10-17) far beyond what the input holds
     fails before anything is sized by it. *)
  let huge = Bytes.of_string s in
  Bytes.set_int64_le huge 10 (Int64.shift_left 1L 40);
  expect "indexed node count beyond the input" (Bytes.to_string huge);
  (* node-map entry patched out of range: map entries start at byte 26
     (8 header + 1 tag + 1 flag + 8 indexed-n + 8 original-n) *)
  expect "map entry out of range"
    (String.sub s 0 26 ^ "\255\255\255\255"
    ^ String.sub s 30 (String.length s - 30))

let io_save_load () =
  let g = Testutil.recommendation () in
  let idx = Compress_reach.index (Compress_reach.compress g) in
  let path = Filename.temp_file "qpgc_idx" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Reach_index_io.save path idx;
      let idx' = Reach_index_io.load path in
      Alcotest.(check bool) "loaded index answers all pairs" true
        (all_pairs_agree g (Reach_index.query idx')))

let io_props =
  [
    qtest "snapshot roundtrip preserves every answer" arb_g (fun g ->
        every_algorithm (fun algorithm ->
            let idx =
              Compress_reach.index ~algorithm (Compress_reach.compress g)
            in
            let idx' =
              Reach_index_io.of_binary_string
                (Reach_index_io.to_binary_string idx)
            in
            all_pairs_agree g (Reach_index.query idx')));
    qtest "snapshot serialisation is canonical" arb_g (fun g ->
        every_algorithm (fun algorithm ->
            let s = snapshot_of g algorithm in
            String.equal
              (Reach_index_io.to_binary_string
                 (Reach_index_io.of_binary_string s))
              s));
    qtest "identity-mapped snapshot roundtrips too" arb_g (fun g ->
        every_algorithm (fun algorithm ->
            let idx = Reach_index.build ~algorithm g in
            let idx' =
              Reach_index_io.of_binary_string
                (Reach_index_io.to_binary_string idx)
            in
            Reach_index.node_map idx' = None
            && all_pairs_agree g (Reach_index.query idx')));
  ]

(* ------------------------------------------------------------------ *)
(* Planner *)

let planner_large_graph () =
  (* Big enough to clear the tiny-graph BFS route, so create() actually
     samples: the committed engine is the GRAIL labeling or bidirectional
     BFS, and either must still agree with plain BFS. *)
  let rng = Random.State.make [| 77 |] in
  let g = Generators.erdos_renyi rng ~n:600 ~m:1200 in
  let pl = Planner.create g in
  (match Planner.route pl with
  | Planner.Bfs | Planner.Index -> Alcotest.fail "unexpected route"
  | Planner.Bibfs | Planner.Grail_fallback -> ());
  let stats = Planner.stats pl in
  Alcotest.(check bool) "sampled a fallback rate" true
    (stats.Planner.grail_fallback_rate <> None);
  Alcotest.(check bool) "measured DAG-ness" true (stats.Planner.is_dag <> None);
  let ok = ref true in
  for _ = 1 to 500 do
    let source = Random.State.int rng 600
    and target = Random.State.int rng 600 in
    if Planner.eval pl ~source ~target <> bfs_oracle g ~source ~target then
      ok := false
  done;
  Alcotest.(check bool) "planner agrees with BFS on random pairs" true !ok

let planner_empty_graph () =
  let pl = Planner.create Digraph.empty in
  Alcotest.(check (array bool)) "empty batch" [||] (Reach_query.eval_pairs (Planner.eval_into pl) [||])

let planner_props =
  [
    qtest "planner matches BFS on all pairs" arb_g (fun g ->
        let pl = Planner.create g in
        all_pairs_agree g (Planner.eval pl));
    qtest "planner with an index matches BFS on all pairs" arb_g (fun g ->
        let index = Compress_reach.index (Compress_reach.compress g) in
        let pl = Planner.create ~index g in
        Planner.route pl = Planner.Index && all_pairs_agree g (Planner.eval pl));
    qtest "planner batch equals per-query answers across domains" arb_g
      (fun g ->
        let pl = Planner.create g in
        let n = Digraph.n g in
        let pairs = Array.init (n * n) (fun i -> (i / n, i mod n)) in
        let expected =
          Array.map
            (fun (source, target) -> Planner.eval pl ~source ~target)
            pairs
        in
        List.for_all
          (fun domains ->
            Pool.with_pool ~domains (fun pool ->
                Reach_query.eval_pairs (Planner.eval_into ~pool pl) pairs = expected))
          [ 1; 2; 4 ]);
    qtest
      "planner eval_into at an offset equals per-query eval for every domain \
       count"
      arb_g_off
      (fun (g, off) ->
        let index = Compress_reach.index (Compress_reach.compress g) in
        List.for_all
          (fun pl ->
            List.for_all
              (fun domains ->
                Pool.with_pool ~domains (fun pool ->
                    flat_agrees ~off g (Planner.eval_into ~pool pl)
                      (Planner.eval pl)))
              [ 1; 2; 4 ])
          [ Planner.create g; Planner.create ~index g ]);
  ]

(* ------------------------------------------------------------------ *)
(* Bidirectional BFS rewrite *)

let bibfs_unit () =
  (* Shapes that exercise the early-exhaustion exit: a source with a tiny
     forward cone, a target with no in-edges, disconnected components. *)
  let g = Digraph.make ~n:7 [ (0, 1); (1, 2); (3, 4); (4, 3); (5, 6) ] in
  List.iter
    (fun (u, v, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "bibfs %d->%d" u v)
        expected
        (Traversal.bibfs_reaches g u v))
    [
      (0, 2, true); (2, 0, false); (0, 4, false); (3, 3, true); (3, 4, true);
      (4, 4, true); (6, 5, false); (5, 6, true); (0, 6, false); (2, 2, true);
    ]

let bibfs_props =
  [
    qtest "bibfs equals BFS on all pairs" arb_g (fun g ->
        all_pairs_agree g (fun ~source ~target ->
            Traversal.bibfs_reaches g source target));
  ]

let () =
  Alcotest.run "reach_index"
    [
      ( "reach_index",
        [
          Alcotest.test_case "all pairs, every algorithm" `Quick index_unit;
          Alcotest.test_case "empty graph" `Quick index_empty_graph;
          Alcotest.test_case "bad node map rejected" `Quick
            index_build_rejects_bad_map;
        ]
        @ index_props );
      ( "reach_index_io",
        [
          Alcotest.test_case "truncation rejected" `Quick io_truncation;
          Alcotest.test_case "corruption rejected" `Quick io_corruption;
          Alcotest.test_case "save / load" `Quick io_save_load;
        ]
        @ io_props );
      ( "planner",
        [
          Alcotest.test_case "large graph routes and agrees" `Quick
            planner_large_graph;
          Alcotest.test_case "empty graph" `Quick planner_empty_graph;
        ]
        @ planner_props );
      ( "bibfs",
        Alcotest.test_case "early exhaustion shapes" `Quick bibfs_unit
        :: bibfs_props );
    ]
