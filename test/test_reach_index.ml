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

(* Two copies of one shape, numbered in opposite orders so that the
   post-order forest fragments a hub's row whichever way the DFS meets it:
   a hub [u] reaches 16 sinks [x i], each also the only child of its own
   source [y i], so the sinks' post ranks interleave with the sources'.
   [v1 <-> v2 -> u] adds a nontrivial SCC, and [a1], [a2] and [y 0] reach
   exactly [x 0]: one acyclic hypernode of compressR. *)
let wide_rows () =
  let half ~u ~v1 ~v2 ~a1 ~a2 ~x ~y =
    List.concat (List.init 16 (fun i -> [ (y i, x i); (u, x i) ]))
    @ [ (v1, v2); (v2, v1); (v1, u); (a1, x 0); (a2, x 0) ]
  in
  Digraph.make ~n:74
    (half ~u:0 ~v1:1 ~v2:2 ~a1:3 ~a2:4
       ~x:(fun i -> 5 + i)
       ~y:(fun i -> 21 + i)
    @ half ~u:69 ~v1:70 ~v2:71 ~a1:72 ~a2:73
        ~x:(fun i -> 37 + i)
        ~y:(fun i -> 53 + i))

let tree_of idx =
  match Reach_index.backend idx with
  | Reach_index.Tree tc -> tc
  | _ -> Alcotest.fail "expected a tree-cover backend"

let widest_row tc =
  let off = Tree_cover.offsets tc in
  let w = ref 0 in
  for c = 0 to Array.length off - 2 do
    w := max !w (off.(c + 1) - off.(c))
  done;
  !w

(* The tree-cover probe's edges: rows long enough that the search halves
   at least three times, over the graph itself (an identity map with
   nontrivial SCCs) and over compressR, with the single-probe and the
   flat entry point checked against BFS on every pair. *)
let tree_cover_wide_rows () =
  let g = wide_rows () in
  let n = Digraph.n g in
  let direct = Reach_index.build g in
  let compressed = Compress_reach.index (Compress_reach.compress g) in
  List.iter
    (fun (name, idx) ->
      let tc = tree_of idx in
      Alcotest.(check bool)
        (name ^ ": a row holds at least 8 intervals")
        true
        (widest_row tc >= 8);
      let bfs ~source ~target = Traversal.bfs_reaches g source target in
      Alcotest.(check bool)
        (name ^ ": query matches BFS on all pairs")
        true
        (all_pairs_agree ~name g (Reach_index.query idx));
      Alcotest.(check bool)
        (name ^ ": query_into matches BFS on all pairs")
        true
        (flat_agrees ~off:2 g (Reach_index.query_into idx) bfs))
    [ ("identity", direct); ("compressR", compressed) ];
  let tc = tree_of direct in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if Tree_cover.query tc u v <> Traversal.bfs_reaches g u v then
        Alcotest.failf "Tree_cover.query disagrees with BFS on (%d, %d)" u v
    done
  done

(* Distinct originals inside one hypernode: an acyclic one answers false
   both ways, a cyclic one true, and every node reaches itself. *)
let tree_cover_one_hypernode () =
  let g = wide_rows () in
  let idx = Compress_reach.index (Compress_reach.compress g) in
  let r = Option.get (Reach_index.node_map idx) in
  let reach source target = Reach_index.query idx ~source ~target in
  Alcotest.(check bool) "a1, a2, y 0 share a hypernode" true
    (r.(3) = r.(4) && r.(4) = r.(21));
  Alcotest.(check bool) "v1, v2 share a hypernode" true (r.(1) = r.(2));
  Alcotest.(check bool) "a1 -/-> a2" false (reach 3 4);
  Alcotest.(check bool) "a2 -/-> y 0" false (reach 4 21);
  Alcotest.(check bool) "v1 ~> v2" true (reach 1 2);
  Alcotest.(check bool) "v2 ~> v1" true (reach 2 1);
  for v = 0 to Digraph.n g - 1 do
    if not (reach v v) then Alcotest.failf "QR(%d, %d) is false" v v
  done

(* One 256-pair [query_into] call at one domain allocates only its
   closures (the span and the range body): 21 minor words, measured in
   the dev and release profiles.  A probe that allocates costs at least
   256 more. *)
let query_into_budget = 24

let query_into_allocation () =
  let rng = Random.State.make [| 5 |] in
  let g = Generators.erdos_renyi rng ~n:3000 ~m:4500 in
  let n = Digraph.n g in
  let src = Array.init 256 (fun _ -> Random.State.int rng n) in
  let dst = Array.init 256 (fun _ -> Random.State.int rng n) in
  let out = Bytes.create 256 in
  List.iter
    (fun (name, idx) ->
      Pool.with_pool ~domains:1 (fun pool ->
          let call () =
            Reach_index.query_into ~pool idx ~src ~dst ~off:0 ~len:256 out
          in
          call ();
          let calls = 100 in
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            call ()
          done;
          let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
          if per_call > float_of_int query_into_budget then
            Alcotest.failf "%s: %.1f minor words per call, budget %d" name
              per_call query_into_budget))
    [
      ("identity", Reach_index.build g);
      ("compressR", Compress_reach.index (Compress_reach.compress g));
    ]

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
  ;
  (* Tree-cover rows: a tag-0 snapshot ends with the post ranks and the
     per-row interval counts (k int32s each), then the intervals as int32
     (lo, hi) pairs.  The search relies on each row being nonempty,
     ascending, disjoint and holding its own post rank, so a row that
     breaks that must not load, even though it re-encodes to its own
     bytes. *)
  let idx = Compress_reach.index (Compress_reach.compress (wide_rows ())) in
  let tc = tree_of idx in
  let s = Reach_index_io.to_binary_string idx in
  let off = Tree_cover.offsets tc in
  let post = Tree_cover.post tc and pairs = Tree_cover.pairs tc in
  let k = Array.length post in
  let pairs_at = String.length s - (8 * off.(k)) in
  let counts_at = pairs_at - (4 * k) in
  let post_at = counts_at - (4 * k) in
  let patch writes =
    let b = Bytes.of_string s in
    List.iter
      (fun (pos, x) -> Bytes.set_int32_le b pos (Int32.of_int x))
      writes;
    Bytes.to_string b
  in
  let wide = ref 0 in
  while off.(!wide + 1) - off.(!wide) < 2 do
    incr wide
  done;
  (* the first two intervals of a row with two or more, by word index *)
  let first = 2 * off.(!wide) in
  let at i = pairs_at + (4 * i) in
  expect "two intervals of a row swapped"
    (patch
       (List.init 4 (fun j ->
            (at (first + j), pairs.(first + ((j + 2) mod 4))))));
  expect "overlapping intervals"
    (patch [ (at (first + 1), pairs.(first + 2)) ]);
  (* the wide row's post rank set to one its row reaches: a duplicate *)
  let other =
    if pairs.(first + 1) < post.(!wide) then first else first + 2
  in
  expect "duplicate post rank"
    (patch [ (post_at + (4 * !wide), pairs.(other)) ]);
  expect "post rank out of range" (patch [ (post_at, k) ]);
  expect "post rank negative" (patch [ (post_at, -1) ]);
  expect "interval beyond the post ranks"
    (patch [ (String.length s - 4, k) ]);
  let count c = off.(c + 1) - off.(c) in
  expect "a row's intervals counted in the row before it"
    (patch
       [
         (counts_at + (4 * (k - 2)), count (k - 2) + count (k - 1));
         (counts_at + (4 * (k - 1)), 0);
       ]);
  (* Two sinks' post ranks swapped: still a permutation, each row still
     well formed, but neither holds its own post rank. *)
  match
    List.filter
      (fun c ->
        count c = 1
        && pairs.(2 * off.(c)) = post.(c)
        && pairs.((2 * off.(c)) + 1) = post.(c))
      (List.init k Fun.id)
  with
  | c1 :: c2 :: _ ->
      expect "two sinks' post ranks swapped"
        (patch
           [ (post_at + (4 * c1), post.(c2)); (post_at + (4 * c2), post.(c1)) ])
  | _ -> Alcotest.fail "expected two sinks"

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
          Alcotest.test_case "tree cover: wide rows match BFS" `Quick
            tree_cover_wide_rows;
          Alcotest.test_case "tree cover: members of one hypernode" `Quick
            tree_cover_one_hypernode;
          Alcotest.test_case "query_into allocation budget" `Quick
            query_into_allocation;
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
