(* Tests for the incremental maintenance algorithms (paper Sec 5): incRCM
   and incPCM must produce exactly the compression a batch run on the
   updated graph would, across arbitrary update batches, and must keep
   answering queries correctly. *)

let qtest = Testutil.qtest

let arb_gu = Testutil.arbitrary_graph_updates ()

(* A graph plus several successive batches. *)
let arb_gu_multi =
  ( (let open QCheck2.Gen in
     let* g = Testutil.digraph_gen () in
     let n = Digraph.n g in
     let upd =
       let* u = int_range 0 (n - 1) in
       let* v = int_range 0 (n - 1) in
       let* ins = bool in
       pure (if ins then Edge_update.Insert (u, v) else Edge_update.Delete (u, v))
     in
     let batch = list_size (int_range 0 8) upd in
     let* batches = list_size (int_range 1 4) batch in
     pure (g, batches)),
    fun (g, batches) ->
      Format.asprintf "%a@.%a" Digraph.pp g
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ;; ")
           (Format.pp_print_list ~pp_sep:Format.pp_print_space Edge_update.pp))
        batches )

(* Insert-only batches exercise incRCM's endpoint fast path. *)
let arb_gu_inserts =
  ( (let open QCheck2.Gen in
     let* g = Testutil.digraph_gen () in
     let n = Digraph.n g in
     let upd =
       let* u = int_range 0 (n - 1) in
       let* v = int_range 0 (n - 1) in
       pure (Edge_update.Insert (u, v))
     in
     let* updates = list_size (int_range 1 10) upd in
     pure (g, updates)),
    Testutil.graph_updates_print )

let arb_gu_deletes =
  ( (let open QCheck2.Gen in
     let* g = Testutil.digraph_gen () in
     let edges = Testutil.edges_list g in
     match edges with
     | [] -> pure (g, [])
     | _ ->
         let* picks = list_size (int_range 1 6) (oneofl edges) in
         pure (g, List.map (fun (u, v) -> Edge_update.Delete (u, v)) picks)),
    Testutil.graph_updates_print )

(* ------------------------------------------------------------------ *)
(* incRCM *)

let inc_reach_props =
  [
    qtest ~count:400 "incRCM equals batch (mixed)" arb_gu (fun (g, updates) ->
        let inc = Inc_reach.create g in
        let fresh = Inc_reach.apply inc updates in
        Verify.same_compression fresh
          (Compress_reach.compress (Inc_reach.graph inc)));
    qtest ~count:200 "incRCM equals batch across batches" arb_gu_multi
      (fun (g, batches) ->
        let inc = Inc_reach.create g in
        List.for_all
          (fun batch ->
            let fresh = Inc_reach.apply inc batch in
            Verify.same_compression fresh
              (Compress_reach.compress (Inc_reach.graph inc)))
          batches);
    qtest ~count:300 "incRCM fast path (insert-only)" arb_gu_inserts
      (fun (g, updates) ->
        let inc = Inc_reach.create g in
        let fresh = Inc_reach.apply inc updates in
        Verify.same_compression fresh
          (Compress_reach.compress (Inc_reach.graph inc)));
    qtest ~count:300 "incRCM delete-only" arb_gu_deletes (fun (g, updates) ->
        let inc = Inc_reach.create g in
        let fresh = Inc_reach.apply inc updates in
        Verify.same_compression fresh
          (Compress_reach.compress (Inc_reach.graph inc)));
    qtest "incRCM keeps answering queries" arb_gu (fun (g, updates) ->
        let inc = Inc_reach.create g in
        let fresh = Inc_reach.apply inc updates in
        Verify.reach_preserved (Inc_reach.graph inc) fresh);
    qtest "graph state matches Edge_update.apply" arb_gu (fun (g, updates) ->
        let inc = Inc_reach.create g in
        ignore (Inc_reach.apply inc updates);
        Digraph.equal (Inc_reach.graph inc) (Edge_update.apply g updates));
    qtest "empty batch is a no-op" (Testutil.arbitrary_digraph ()) (fun g ->
        let inc = Inc_reach.create g in
        let before = Inc_reach.compressed inc in
        let after = Inc_reach.apply inc [] in
        Verify.same_compression before after);
    qtest "stats are sane" arb_gu (fun (g, updates) ->
        let inc = Inc_reach.create g in
        ignore (Inc_reach.apply inc updates);
        match Inc_reach.last_stats inc with
        | None -> false
        | Some s ->
            s.Inc_reach.updates_kept >= 0
            && s.Inc_reach.updates_dropped >= 0
            && s.Inc_reach.updates_kept + s.Inc_reach.updates_dropped
               <= List.length (Edge_update.normalize updates)
            && s.Inc_reach.region_size >= 0);
  ]

let inc_reach_redundant_insertions () =
  (* inserting an edge between already-connected nodes must not touch Gr *)
  let g = Digraph.make ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let inc = Inc_reach.create g in
  let before = Inc_reach.compressed inc in
  ignore (Inc_reach.apply inc [ Edge_update.Insert (0, 3) ]);
  (match Inc_reach.last_stats inc with
  | Some s ->
      Alcotest.(check int) "redundant dropped" 1 s.Inc_reach.updates_dropped;
      Alcotest.(check int) "nothing kept" 0 s.Inc_reach.updates_kept
  | None -> Alcotest.fail "expected stats");
  Alcotest.(check bool) "Gr untouched" true
    (Verify.same_compression before (Inc_reach.compressed inc));
  (* but the graph itself did change *)
  Alcotest.(check bool) "edge present" true
    (Digraph.mem_edge (Inc_reach.graph inc) 0 3)

let inc_reach_scc_formation () =
  (* Fig 9 flavour: inserting a back edge forms an SCC and merges classes;
     deleting it splits them again. *)
  let g = Digraph.make ~n:3 [ (0, 1); (1, 2) ] in
  let inc = Inc_reach.create g in
  ignore (Inc_reach.apply inc [ Edge_update.Insert (2, 0) ]);
  let c = Inc_reach.compressed inc in
  Alcotest.(check int) "one cyclic hypernode" 1 (Digraph.n (Compressed.graph c));
  Alcotest.(check bool) "self loop present" true
    (Digraph.mem_edge (Compressed.graph c) 0 0);
  ignore (Inc_reach.apply inc [ Edge_update.Delete (2, 0) ]);
  let c2 = Inc_reach.compressed inc in
  Alcotest.(check bool) "back to the chain" true
    (Verify.same_compression c2 (Compress_reach.compress (Inc_reach.graph inc)));
  Alcotest.(check int) "three hypernodes again" 3
    (Digraph.n (Compressed.graph c2))

(* ------------------------------------------------------------------ *)
(* incPCM *)

(* [Digraph.label] is non-decreasing in hypernode id. *)
let label_ordered c =
  let gr = Compressed.graph c in
  let rec from h =
    h >= Digraph.n gr || (Digraph.label gr (h - 1) <= Digraph.label gr h && from (h + 1))
  in
  from 1

let inc_bisim_props =
  [
    qtest ~count:300 "compressB and incPCM number hypernodes by label" arb_gu
      (fun (g, updates) ->
        let inc = Inc_bisim.create g in
        label_ordered (Compress_bisim.compress g)
        && label_ordered (Inc_bisim.compressed inc)
        && label_ordered (Inc_bisim.apply inc updates));
    qtest ~count:400 "incPCM equals batch (mixed)" arb_gu (fun (g, updates) ->
        let inc = Inc_bisim.create g in
        let fresh = Inc_bisim.apply inc updates in
        Verify.same_compression fresh
          (Compress_bisim.compress (Inc_bisim.graph inc)));
    qtest ~count:200 "incPCM equals batch across batches" arb_gu_multi
      (fun (g, batches) ->
        let inc = Inc_bisim.create g in
        List.for_all
          (fun batch ->
            let fresh = Inc_bisim.apply inc batch in
            Verify.same_compression fresh
              (Compress_bisim.compress (Inc_bisim.graph inc)))
          batches);
    qtest ~count:200 "IncBsim (one-by-one) also equals batch" arb_gu
      (fun (g, updates) ->
        let inc = Inc_bisim.create g in
        let fresh = Inc_bisim.apply_one_by_one inc updates in
        Verify.same_compression fresh
          (Compress_bisim.compress (Inc_bisim.graph inc)));
    qtest "incPCM keeps answering pattern queries"
      ( (let open QCheck2.Gen in
          let* g, p = Testutil.graph_pattern_gen () in
          let n = Digraph.n g in
          let upd =
            let* u = int_range 0 (n - 1) in
            let* v = int_range 0 (n - 1) in
            let* ins = bool in
            pure
              (if ins then Edge_update.Insert (u, v)
               else Edge_update.Delete (u, v))
          in
          let* updates = list_size (int_range 0 8) upd in
          pure ((g, p), updates)),
        fun ((g, p), updates) ->
          Format.asprintf "%a@.%a@.%a" Digraph.pp g Pattern.pp p
            (Format.pp_print_list ~pp_sep:Format.pp_print_space Edge_update.pp)
            updates )
      (fun ((g, p), updates) ->
        let inc = Inc_bisim.create g in
        let fresh = Inc_bisim.apply inc updates in
        Verify.pattern_preserved p (Inc_bisim.graph inc) fresh);
    qtest "graph state matches Edge_update.apply" arb_gu (fun (g, updates) ->
        let inc = Inc_bisim.create g in
        ignore (Inc_bisim.apply inc updates);
        Digraph.equal (Inc_bisim.graph inc) (Edge_update.apply g updates));
    qtest "empty batch is a no-op" (Testutil.arbitrary_digraph ()) (fun g ->
        let inc = Inc_bisim.create g in
        let before = Inc_bisim.compressed inc in
        Verify.same_compression before (Inc_bisim.apply inc []));
  ]

let inc_bisim_min_delta () =
  (* minDelta: an insertion whose source already has a child in the target
     hypernode is redundant (Sec 5.2 rule 1). *)
  let g = Digraph.make ~n:4 ~labels:[| 0; 1; 1; 0 |] [ (0, 1); (3, 2) ] in
  (* 1 and 2 are bisimilar sinks with the same label *)
  let inc = Inc_bisim.create g in
  let before = Inc_bisim.compressed inc in
  Alcotest.(check bool) "1 ~ 2 initially" true
    (Compressed.hypernode before 1 = Compressed.hypernode before 2);
  ignore (Inc_bisim.apply inc [ Edge_update.Insert (0, 2) ]);
  (match Inc_bisim.last_stats inc with
  | Some s ->
      Alcotest.(check int) "dropped as redundant" 1 s.Inc_bisim.updates_dropped;
      Alcotest.(check int) "kept" 0 s.Inc_bisim.updates_kept
  | None -> Alcotest.fail "expected stats");
  Alcotest.(check bool) "Gr untouched" true
    (Verify.same_compression before (Inc_bisim.compressed inc));
  (* and the invariant against batch still holds *)
  Alcotest.(check bool) "matches batch" true
    (Verify.same_compression (Inc_bisim.compressed inc)
       (Compress_bisim.compress (Inc_bisim.graph inc)))

let inc_bisim_fig11_flavour () =
  (* Fig 11 flavour on the recommendation network: deleting a customer's
     interaction changes the FA's block; incremental equals batch all the
     way through a small update story. *)
  let g = Testutil.recommendation () in
  let open Testutil.Rec in
  let inc = Inc_bisim.create g in
  let story =
    [
      [ Edge_update.Delete (c1, fa1) ];
      [ Edge_update.Insert (fa4, c3) ];
      [ Edge_update.Delete (fa3, c4); Edge_update.Insert (c2, fa1) ];
    ]
  in
  List.iter
    (fun batch ->
      let fresh = Inc_bisim.apply inc batch in
      Alcotest.(check bool) "matches batch" true
        (Verify.same_compression fresh
           (Compress_bisim.compress (Inc_bisim.graph inc))))
    story

(* ------------------------------------------------------------------ *)
(* Medium-size stress: fewer trials, larger graphs, deeper update stories.
   Catches effects the 14-node qcheck graphs cannot (multi-level cascades,
   large merged classes, fast-path/slow-path interleavings). *)

let medium_stress () =
  let rng = Random.State.make [| 0xbeef |] in
  for _trial = 1 to 6 do
    let n = 60 + Random.State.int rng 60 in
    let m = n + Random.State.int rng (3 * n) in
    let g0 = Generators.erdos_renyi rng ~n ~m in
    let g = Generators.with_zipf_labels rng g0 ~label_count:4 in
    let incr_r = Inc_reach.create g in
    let incr_b = Inc_bisim.create g in
    for _round = 1 to 5 do
      let count = 1 + Random.State.int rng 25 in
      let batch =
        List.init count (fun _ ->
            let u = Random.State.int rng n and v = Random.State.int rng n in
            if Random.State.bool rng then Edge_update.Insert (u, v)
            else Edge_update.Delete (u, v))
      in
      let fr = Inc_reach.apply incr_r batch in
      Alcotest.(check bool) "incRCM medium" true
        (Verify.same_compression fr
           (Compress_reach.compress (Inc_reach.graph incr_r)));
      let fb = Inc_bisim.apply incr_b batch in
      Alcotest.(check bool) "incPCM medium" true
        (Verify.same_compression fb
           (Compress_bisim.compress (Inc_bisim.graph incr_b)))
    done
  done

let dataset_stress () =
  (* one realistic topology: scaled social stand-in with heavy churn *)
  let spec = Datasets.find "socEpinions" in
  let g = Datasets.generate_scaled spec ~nodes:400 ~edges:2600 in
  let rng = Random.State.make [| 0xfeed |] in
  let inc = Inc_reach.create g in
  for _round = 1 to 4 do
    let batch =
      Update_gen.mixed rng (Inc_reach.graph inc) ~count:60 ~insert_frac:0.5
    in
    let fr = Inc_reach.apply inc batch in
    Alcotest.(check bool) "incRCM on social stand-in" true
      (Verify.same_compression fr
         (Compress_reach.compress (Inc_reach.graph inc)))
  done;
  let incb = Inc_bisim.create g in
  for _round = 1 to 3 do
    let batch =
      Update_gen.mixed rng (Inc_bisim.graph incb) ~count:40 ~insert_frac:0.5
    in
    let fb = Inc_bisim.apply incb batch in
    Alcotest.(check bool) "incPCM on social stand-in" true
      (Verify.same_compression fb
         (Compress_bisim.compress (Inc_bisim.graph incb)))
  done

let () =
  Alcotest.run "incremental"
    [
      ( "inc_reach",
        [
          Alcotest.test_case "redundant insertions" `Quick
            inc_reach_redundant_insertions;
          Alcotest.test_case "SCC formation and teardown" `Quick
            inc_reach_scc_formation;
        ]
        @ inc_reach_props );
      ( "inc_bisim",
        [
          Alcotest.test_case "minDelta rule" `Quick inc_bisim_min_delta;
          Alcotest.test_case "recommendation story (Fig 11 flavour)" `Quick
            inc_bisim_fig11_flavour;
        ]
        @ inc_bisim_props );
      ( "stress",
        [
          Alcotest.test_case "medium random graphs" `Slow medium_stress;
          Alcotest.test_case "social stand-in churn" `Slow dataset_stress;
        ] );
    ]
