(* Tests for the workload layer: dataset stand-ins, update generators,
   evolution models, and a smoke run of the experiment drivers at a tiny
   scale. *)

let qtest = Testutil.qtest

(* ------------------------------------------------------------------ *)
(* Datasets *)

let dataset_shapes () =
  List.iter
    (fun spec ->
      let g =
        Datasets.generate_scaled spec
          ~nodes:(max 30 (spec.Datasets.nodes / 50))
          ~edges:(max 40 (spec.Datasets.edges / 50))
      in
      Digraph.validate g;
      Alcotest.(check bool)
        (spec.Datasets.name ^ " nonempty")
        true
        (Digraph.n g > 0 && Digraph.m g > 0);
      Alcotest.(check bool)
        (spec.Datasets.name ^ " labels in range")
        true
        (Array.for_all
           (fun l -> l >= 0 && l < max 1 spec.Datasets.labels)
           (Digraph.labels g)))
    (Datasets.reach_datasets @ Datasets.pattern_datasets)

let dataset_determinism () =
  let spec = Datasets.find "P2P" in
  let g1 = Datasets.generate_scaled ~seed:5 spec ~nodes:200 ~edges:600 in
  let g2 = Datasets.generate_scaled ~seed:5 spec ~nodes:200 ~edges:600 in
  Alcotest.(check bool) "same seed same graph" true (Digraph.equal g1 g2);
  let g3 = Datasets.generate_scaled ~seed:6 spec ~nodes:200 ~edges:600 in
  Alcotest.(check bool) "different seed differs" false (Digraph.equal g1 g3)

let dataset_find () =
  Alcotest.(check string) "find" "facebook" (Datasets.find "facebook").Datasets.name;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Datasets.find "no-such-dataset"))

let dataset_tables_complete () =
  Alcotest.(check int) "ten reach datasets (Table 1)" 10
    (List.length Datasets.reach_datasets);
  Alcotest.(check int) "five pattern datasets (Table 2)" 5
    (List.length Datasets.pattern_datasets);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Datasets.name ^ " has paper RCr")
        true
        (s.Datasets.paper_rc <> None))
    Datasets.reach_datasets;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Datasets.name ^ " has paper PCr")
        true
        (s.Datasets.paper_pc <> None))
    Datasets.pattern_datasets

let dataset_compression_sanity () =
  (* The structural drivers must survive scaling: the social stand-in
     compresses much better for reachability than the citation DAG. *)
  let gen name =
    let spec = Datasets.find name in
    Datasets.generate_scaled spec ~nodes:(spec.Datasets.nodes / 8)
      ~edges:(spec.Datasets.edges / 8)
  in
  let ratio g = Compressed.ratio (Compress_reach.compress g) ~original:g in
  let social = ratio (gen "facebook") in
  let citation = ratio (gen "citHepTh") in
  Alcotest.(check bool)
    (Printf.sprintf "facebook (%.4f) compresses better than citHepTh (%.4f)"
       social citation)
    true (social < citation)

(* ------------------------------------------------------------------ *)
(* Update generators *)

let arb_g = Testutil.arbitrary_digraph ~max_n:20 ()

let update_gen_props =
  [
    qtest "insertions are fresh distinct edges" arb_g (fun g ->
        let rng = Random.State.make [| 3 |] in
        let ins = Update_gen.insertions rng g ~count:6 in
        List.for_all
          (function
            | Edge_update.Insert (u, v) -> u <> v && not (Digraph.mem_edge g u v)
            | Edge_update.Delete _ -> false)
          ins
        && List.length (List.sort_uniq compare ins) = List.length ins);
    qtest "deletions pick existing edges" arb_g (fun g ->
        let rng = Random.State.make [| 4 |] in
        let dels = Update_gen.deletions rng g ~count:5 in
        List.for_all
          (function
            | Edge_update.Delete (u, v) -> Digraph.mem_edge g u v
            | Edge_update.Insert _ -> false)
          dels
        && List.length dels <= min 5 (Digraph.m g));
    qtest "hub insertions are fresh edges too" arb_g (fun g ->
        let rng = Random.State.make [| 5 |] in
        Update_gen.hub_insertions rng g ~count:5 ~hub_bias:0.8
        |> List.for_all (function
             | Edge_update.Insert (u, v) ->
                 u <> v && not (Digraph.mem_edge g u v)
             | Edge_update.Delete _ -> false));
    qtest "mixed batches respect the split" arb_g (fun g ->
        let rng = Random.State.make [| 6 |] in
        let batch = Update_gen.mixed rng g ~count:8 ~insert_frac:0.5 in
        let ins, dels =
          List.partition
            (function Edge_update.Insert _ -> true | _ -> false)
            batch
        in
        List.length ins <= 8 && List.length dels <= Digraph.m g);
  ]

(* ------------------------------------------------------------------ *)
(* Evolution *)

let densification_unit () =
  let graphs =
    Evolve.densification ~alpha:1.05 ~beta:1.3 ~v0:50 ~steps:4 ~labels:3 ()
  in
  Alcotest.(check int) "steps" 4 (List.length graphs);
  let sizes = List.map Digraph.n graphs in
  Alcotest.(check bool) "node counts grow" true
    (List.sort compare sizes = sizes && List.nth sizes 0 < List.nth sizes 3);
  List.iter Digraph.validate graphs

let power_law_unit () =
  let rng = Random.State.make [| 7 |] in
  let g = Generators.erdos_renyi rng ~n:60 ~m:150 in
  let graphs = Evolve.power_law_growth g ~steps:3 ~rate:0.1 ~hub_bias:0.8 in
  Alcotest.(check int) "steps+1 graphs" 4 (List.length graphs);
  let edge_counts = List.map Digraph.m graphs in
  Alcotest.(check bool) "edges grow" true
    (List.for_all2
       (fun a b -> b >= a)
       (List.filteri (fun i _ -> i < 3) edge_counts)
       (List.tl edge_counts));
  Alcotest.(check bool) "original first" true
    (Digraph.equal (List.hd graphs) g)

(* ------------------------------------------------------------------ *)
(* Experiment drivers: smoke at tiny scale *)

let tiny = { Experiments.seed = 3; scale = 0.02 }

let experiments_smoke () =
  let t1 = Experiments.Table1.run ~opts:tiny () in
  Alcotest.(check int) "table1 rows" 10 (List.length t1);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Experiments.Table1.name ^ " ratios in range")
        true
        (r.Experiments.Table1.rc_r > 0.0 && r.Experiments.Table1.rc_r <= 1.0
        && r.Experiments.Table1.rc_aho > 0.0))
    t1;
  let t2 = Experiments.Table2.run ~opts:tiny () in
  Alcotest.(check int) "table2 rows" 5 (List.length t2);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Experiments.Table2.name ^ " PCr in range")
        true
        (r.Experiments.Table2.pc_r > 0.0 && r.Experiments.Table2.pc_r <= 1.0))
    t2;
  let a = Experiments.Fig12a.run ~opts:tiny () in
  Alcotest.(check int) "fig12a rows" 5 (List.length a);
  let d = Experiments.Fig12d.run ~opts:tiny () in
  Alcotest.(check bool) "fig12d: Gr smaller than G" true
    (List.for_all
       (fun r -> r.Experiments.Fig12d.gr_mb <= r.Experiments.Fig12d.g_mb)
       d);
  let ik = Experiments.Fig12ik.run ~opts:tiny ~pattern:false () in
  Alcotest.(check int) "fig12i steps" 8 (List.length ik);
  let jl = Experiments.Fig12jl.run ~opts:tiny ~pattern:false () in
  Alcotest.(check bool) "fig12j rows nonempty" true (List.length jl > 0)

let experiments_determinism () =
  let r1 = Experiments.Table1.run ~opts:tiny () in
  let r2 = Experiments.Table1.run ~opts:tiny () in
  Alcotest.(check bool) "same opts same rows" true (r1 = r2)

(* ------------------------------------------------------------------ *)
(* Whole-library consistency: on a realistic stand-in, every reachability
   machine in the repository must give identical answers — BFS, BiBFS,
   DFS, 2-hop, GRAIL, tree cover, the compression and the paper-verbatim
   compression. *)

let consistency () =
  let spec = Datasets.find "P2P" in
  let g = Datasets.generate_scaled spec ~nodes:600 ~edges:2000 in
  let rc = Compress_reach.compress g in
  let rc_paper = Compress_reach.compress_paper g in
  let th = Two_hop.build g in
  let grail = Grail.build g in
  let tc = Tree_cover.build g in
  let rng = Random.State.make [| 1234 |] in
  let pairs = Reach_query.random_pairs rng g ~count:500 in
  Array.iter
    (fun (u, v) ->
      let expected = Traversal.bfs_reaches g u v in
      let check name actual =
        if actual <> expected then
          Alcotest.failf "%s disagrees on (%d,%d)" name u v
      in
      check "bibfs" (Traversal.bibfs_reaches g u v);
      check "dfs" (Traversal.dfs_reaches g u v);
      check "two_hop" (Two_hop.query th u v);
      check "grail" (Grail.query grail u v);
      check "tree_cover" (Tree_cover.query tc u v);
      check "compression" (Compress_reach.answer rc ~source:u ~target:v);
      check "compression (Fig 5)"
        (Compress_reach.answer rc_paper ~source:u ~target:v))
    pairs

let pattern_consistency () =
  (* all three pattern machines agree: bitset Match, matrix Match, and
     evaluation on the compressed graph *)
  let spec = Datasets.find "Citation" in
  let g = Datasets.generate_scaled spec ~nodes:500 ~edges:800 in
  let c = Compress_bisim.compress g in
  let rng = Random.State.make [| 4321 |] in
  for _ = 1 to 10 do
    let p =
      Pattern_gen.random rng g ~nodes:3 ~edges:3 ~max_bound:2
        ~unbounded_prob:0.25
    in
    let reference = Bounded_sim.eval p g in
    Alcotest.(check bool) "matrix agrees" true
      (Pattern.result_equal reference (Bounded_sim.eval_matrix p g));
    Alcotest.(check bool) "compressed agrees" true
      (Pattern.result_equal reference (Compress_bisim.answer p c))
  done

let fig1_smoke () =
  let r = Experiments.Fig1.run ~opts:tiny () in
  Alcotest.(check bool) "reductions in (0,1)" true
    (r.Experiments.Fig1.reach_reduction > 0.
    && r.Experiments.Fig1.reach_reduction < 1.
    && r.Experiments.Fig1.pattern_reduction > 0.
    && r.Experiments.Fig1.pattern_reduction < 1.)

let lifetime_smoke () =
  let rows = Experiments.Lifetime.run ~opts:{ tiny with Experiments.scale = 0.1 } () in
  Alcotest.(check int) "twenty rounds" 20 (List.length rows);
  Alcotest.(check bool) "all queries ok" true
    (List.for_all (fun r -> r.Experiments.Lifetime.queries_ok) rows)

let csv_unit () =
  let report rows =
    { Report.title = "t"; columns = [ "a"; "b" ]; rows; notes = [ "note" ] }
  in
  let quoted =
    report Report.[ [ Int 1; Text "x,y" ]; [ Int 2; Text "he said \"hi\"" ] ]
  in
  Alcotest.(check string) "quoting" "a,b\n1,\"x,y\"\n2,\"he said \"\"hi\"\"\"\n"
    (Report.csv quoted);
  let kinds =
    report
      Report.
        [
          [ Text "int"; Int 42 ];
          [ Text "float"; Float 0.1234567 ];
          [ Text "pct"; Pct 0.0271828 ];
          [ Text "text"; Text "x|y" ];
        ]
  in
  Alcotest.(check string) "csv cells" "a,b\nint,42\nfloat,0.123457\npct,2.718\ntext,x|y\n"
    (Report.csv kinds);
  Alcotest.(check string) "printed cells"
    "t\n\n\
     | a     | b        |\n\
     | ----- | -------- |\n\
     | int   |       42 |\n\
     | float | 0.123457 |\n\
     | pct   |   2.718% |\n\
     | text  | x\\|y     |\n\
     \nnote\n"
    (Format.asprintf "%a" Report.print kinds);
  let ragged = report Report.[ [ Int 1; Int 2; Int 3 ] ] in
  Alcotest.check_raises "ragged csv" (Invalid_argument "Report: ragged row")
    (fun () -> ignore (Report.csv ragged));
  Alcotest.check_raises "ragged print" (Invalid_argument "Report: ragged row")
    (fun () -> Report.print Format.str_formatter ragged)

let () =
  Alcotest.run "workload"
    [
      ( "datasets",
        [
          Alcotest.test_case "families generate" `Quick dataset_shapes;
          Alcotest.test_case "deterministic" `Quick dataset_determinism;
          Alcotest.test_case "find" `Quick dataset_find;
          Alcotest.test_case "tables complete" `Quick dataset_tables_complete;
          Alcotest.test_case "compression ordering" `Slow dataset_compression_sanity;
        ] );
      ("update_gen", update_gen_props);
      ( "evolve",
        [
          Alcotest.test_case "densification" `Quick densification_unit;
          Alcotest.test_case "power law growth" `Quick power_law_unit;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "smoke" `Slow experiments_smoke;
          Alcotest.test_case "deterministic" `Slow experiments_determinism;
          Alcotest.test_case "fig1" `Slow fig1_smoke;
          Alcotest.test_case "lifetime" `Slow lifetime_smoke;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "all reachability machines agree" `Slow consistency;
          Alcotest.test_case "all pattern machines agree" `Slow pattern_consistency;
          Alcotest.test_case "csv" `Quick csv_unit;
        ] );
    ]
