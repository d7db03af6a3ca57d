(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Sec 6), plus bechamel micro-benchmarks of the kernels.

   Usage:
     main.exe                      run everything
     main.exe table1 fig12a ...    run selected experiments
     main.exe micro                bechamel micro-benchmarks + speedup rows
     main.exe speedup              seq-vs-parallel kernel speedup rows only
     main.exe --scale 0.25 ...     shrink datasets (quick mode)
     main.exe --seed 7 ...         change the deterministic seed
     main.exe --csv DIR ...        also write each paper table as DIR/<name>.csv
     main.exe --domains 4 ...      size the worker-domain pool *)

let ppf = Format.std_formatter

let section title =
  Format.fprintf ppf "@.=== %s ===@." title

let csv_dir : string option ref = ref None

(* ------------------------------------------------------------------ *)
(* Macro experiments: one report per paper artifact (Experiments.all). *)

let run_report name report opts () =
  let r = report opts in
  Format.fprintf ppf "@.%a" Report.print r;
  Option.iter
    (fun dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (name ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Report.csv r));
      Format.fprintf ppf "(csv written to %s)@." path)
    !csv_dir

(* ------------------------------------------------------------------ *)
(* Phases breakdown for the BENCH JSONs: re-run a kernel once with tracing
   on — outside the timed measurement, so the throughput numbers above it
   stay overhead-free — and render [Obs.phase_totals] as a JSON object
   body. *)

let phases_json f =
  Obs.reset ();
  Obs.set_tracing true;
  Fun.protect
    ~finally:(fun () -> Obs.set_tracing false)
    (fun () -> ignore (f ()));
  let totals = Obs.phase_totals () in
  Obs.reset ();
  String.concat ",\n"
    (List.map
       (fun (name, s) -> Printf.sprintf "    \"%s\": %.4f" name s)
       totals)

(* ------------------------------------------------------------------ *)
(* CSR storage microbench: BFS and compressR throughput over one generated
   100k-node graph (scaled by --scale), written to BENCH_csr.json so the
   storage-layer numbers are tracked in CI.  The committed baseline keeps
   the pre-refactor (int array array adjacency) figures alongside the
   current run for comparison. *)

let run_csr opts () =
  section "CSR storage microbench (BFS + compressR)";
  let n = max 1024 (int_of_float (100_000. *. opts.Experiments.scale)) in
  let m = 3 * n in
  let rng = Random.State.make [| opts.Experiments.seed; 0xC5B |] in
  let g, build_s = Obs.time (fun () -> Generators.erdos_renyi rng ~n ~m) in
  let bfs_queries = 64 in
  let pairs = Reach_query.random_pairs rng g ~count:bfs_queries in
  let time = Obs.time in
  let hits = ref 0 in
  let (), bfs_s =
    time (fun () ->
        Array.iter
          (fun (u, v) ->
            if Reach_query.eval Reach_query.Bfs g ~source:u ~target:v then
              incr hits)
          pairs)
  in
  let c, compress_s = time (fun () -> Compress_reach.compress g) in
  let bfs_qps = float_of_int bfs_queries /. bfs_s in
  let compress_eps = float_of_int (Digraph.m g) /. compress_s in
  let mem = Digraph.memory_bytes g in
  let bytes_per_edge = float_of_int mem /. float_of_int (Digraph.m g) in
  Format.fprintf ppf "graph: |V| = %d, |E| = %d (built in %.3fs)@."
    (Digraph.n g) (Digraph.m g) build_s;
  Format.fprintf ppf "memory: %d bytes (%.1f bytes/edge)@." mem bytes_per_edge;
  Format.fprintf ppf "BFS: %d queries in %.3fs (%.0f q/s, %d reachable)@."
    bfs_queries bfs_s bfs_qps !hits;
  Format.fprintf ppf "compressR: %.3fs (%.0f edges/s), |Vr| = %d@." compress_s
    compress_eps
    (Digraph.n (Compressed.graph c));
  let json =
    Printf.sprintf
      "{\n\
      \  \"nodes\": %d,\n\
      \  \"edges\": %d,\n\
      \  \"seed\": %d,\n\
      \  \"scale\": %g,\n\
      \  \"memory_bytes\": %d,\n\
      \  \"bytes_per_edge\": %.2f,\n\
      \  \"build_s\": %.4f,\n\
      \  \"bfs_queries\": %d,\n\
      \  \"bfs_s\": %.4f,\n\
      \  \"bfs_qps\": %.1f,\n\
      \  \"compress_s\": %.4f,\n\
      \  \"compress_edges_per_s\": %.1f,\n\
      \  \"phases\": {\n%s\n  }\n\
       }\n"
      (Digraph.n g) (Digraph.m g) opts.Experiments.seed
      opts.Experiments.scale mem bytes_per_edge build_s bfs_queries bfs_s
      bfs_qps compress_s compress_eps
      (phases_json (fun () -> Compress_reach.compress g))
  in
  let path = "BENCH_csr.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Format.fprintf ppf "(json written to %s)@." path

(* ------------------------------------------------------------------ *)
(* Pluggable-storage microbench: the BENCH_csr graph serialised in the
   three snapshot kinds ('G' flat, 'M' mapped, 'V' varint), measuring
   bytes/edge on disk and resident, load latency — including the O(1)
   claim of the mapped kind: open time must stay flat while the graph
   grows 10x — and BFS + compressR throughput per backend, with every
   backend's outputs checked identical to flat's.  Written to
   BENCH_storage.json so the storage layer is tracked in CI. *)

let with_temp_file f =
  let path = Filename.temp_file "qpgc_storage" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let file_length path =
  Int64.to_int (In_channel.with_open_bin path In_channel.length)

let run_storage opts () =
  section "Pluggable storage (flat / mmap / varint)";
  let time = Obs.time in
  let n = max 1024 (int_of_float (100_000. *. opts.Experiments.scale)) in
  let m = 3 * n in
  let rng = Random.State.make [| opts.Experiments.seed; 0xC5B |] in
  let g = Generators.erdos_renyi rng ~n ~m in
  let bfs_queries = 64 in
  let pairs = Reach_query.random_pairs rng g ~count:bfs_queries in
  let edges = float_of_int (Digraph.m g) in
  Format.fprintf ppf "graph: |V| = %d, |E| = %d@." (Digraph.n g) (Digraph.m g);
  let c0 = Compress_reach.compress g in
  let bench_backend (name, format, mmap) =
    with_temp_file (fun path ->
        Graph_io.save_binary ~format path g;
        let file_bytes = file_length path in
        let gb, load_s = time (fun () -> fst (Graph_io.load ~mmap path)) in
        let resident = Digraph.memory_bytes gb in
        let hits = ref 0 in
        let (), bfs_s =
          time (fun () ->
              Array.iter
                (fun (u, v) ->
                  if Traversal.bfs_reaches gb u v then incr hits)
                pairs)
        in
        let c, compress_s = time (fun () -> Compress_reach.compress gb) in
        let identical =
          Digraph.equal (Compressed.graph c) (Compressed.graph c0)
          && c.Compressed.node_map = c0.Compressed.node_map
        in
        let bfs_qps = float_of_int bfs_queries /. bfs_s in
        let compress_eps = edges /. compress_s in
        Format.fprintf ppf
          "%-7s file %5.1f B/edge, resident %5.1f B/edge, load %.4fs, BFS \
           %.0f q/s, compressR %.0f edges/s, outputs %s@."
          name
          (float_of_int file_bytes /. edges)
          (float_of_int resident /. edges)
          load_s bfs_qps compress_eps
          (if identical then "ok" else "MISMATCH");
        (name, file_bytes, resident, load_s, bfs_qps, compress_eps, identical))
  in
  let rows =
    List.map bench_backend
      [
        ("flat", Digraph.Flat, false);
        ("mmap", Digraph.Mapped, true);
        ("varint", Digraph.Varint, false);
      ]
  in
  (* The O(1)-open claim: repeated zero-copy opens of a mapped snapshot at
     two sizes 10x apart.  Eager loading would scale linearly; the mapped
     open only parses the fixed header and the name table. *)
  let open_latency n' =
    let rng = Random.State.make [| opts.Experiments.seed; 0x01A |] in
    let gs = Generators.erdos_renyi rng ~n:n' ~m:(3 * n') in
    with_temp_file (fun path ->
        Graph_io.save_binary ~format:Digraph.Mapped path gs;
        ignore (Graph_io.load ~mmap:true path);
        let reps = 50 in
        let (), s =
          time (fun () ->
              for _ = 1 to reps do
                ignore (Graph_io.load ~mmap:true path)
              done)
        in
        s /. float_of_int reps)
  in
  let small_n = max 256 (n / 10) in
  let t_small = open_latency small_n in
  let t_large = open_latency n in
  let o1_ratio = if t_small > 0. then t_large /. t_small else 1. in
  Format.fprintf ppf
    "mmap open: %.1f us at |V| = %d vs %.1f us at |V| = %d (ratio %.2f; \
     eager would be ~10x)@."
    (1e6 *. t_small) small_n (1e6 *. t_large) n o1_ratio;
  let all_ok =
    List.for_all (fun (_, _, _, _, _, _, identical) -> identical) rows
  in
  Format.fprintf ppf "backend outputs identical to flat: %s@."
    (if all_ok then "ok" else "MISMATCH");
  let backend_json (name, file_bytes, resident, load_s, bfs_qps, eps, id) =
    Printf.sprintf
      "    \"%s\": {\n\
      \      \"file_bytes\": %d,\n\
      \      \"file_bytes_per_edge\": %.2f,\n\
      \      \"resident_bytes\": %d,\n\
      \      \"resident_bytes_per_edge\": %.2f,\n\
      \      \"load_s\": %.6f,\n\
      \      \"bfs_qps\": %.1f,\n\
      \      \"compress_edges_per_s\": %.1f,\n\
      \      \"outputs_identical\": %b\n\
      \    }"
      name file_bytes
      (float_of_int file_bytes /. edges)
      resident
      (float_of_int resident /. edges)
      load_s bfs_qps eps id
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"nodes\": %d,\n\
      \  \"edges\": %d,\n\
      \  \"seed\": %d,\n\
      \  \"scale\": %g,\n\
      \  \"backends\": {\n%s\n  },\n\
      \  \"mmap_open\": {\n\
      \    \"small_nodes\": %d,\n\
      \    \"large_nodes\": %d,\n\
      \    \"small_open_s\": %.8f,\n\
      \    \"large_open_s\": %.8f,\n\
      \    \"ratio\": %.3f\n\
      \  },\n\
      \  \"outputs_identical\": %b\n\
       }\n"
      (Digraph.n g) (Digraph.m g) opts.Experiments.seed opts.Experiments.scale
      (String.concat ",\n" (List.map backend_json rows))
      small_n n t_small t_large o1_ratio all_ok
  in
  let path = "BENCH_storage.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Format.fprintf ppf "(json written to %s)@." path;
  if not all_ok then exit 1

(* ------------------------------------------------------------------ *)
(* Compress-then-index reachability microbench: on the BENCH_csr graph
   (same generator, seed and size), compress once, build each reachability
   index over Gr, and push a large shuffled batch through every index and
   through the planner.  Every answer is checked bit-for-bit against a BFS
   oracle; the batch is the cross product of 256 sources and 256 targets,
   so the oracle is 256 descendant sweeps, not 65536 BFS runs.  Written to
   BENCH_reach.json so the query-engine numbers are tracked in CI next to
   the ~85 q/s BFS-on-G baseline of BENCH_csr.json. *)

let percentile_ns sorted p =
  let len = Array.length sorted in
  if len = 0 then 0 else sorted.(min (len - 1) (p * len / 100))

let run_reach opts () =
  section "Compress-then-index reachability (indexes + planner)";
  let n = max 1024 (int_of_float (100_000. *. opts.Experiments.scale)) in
  let m = 3 * n in
  let rng = Random.State.make [| opts.Experiments.seed; 0xC5B |] in
  let g = Generators.erdos_renyi rng ~n ~m in
  let csr_bytes = Digraph.memory_bytes g in
  let time = Obs.time in
  let sample = min 256 n in
  let sources = Array.init sample (fun _ -> Random.State.int rng n) in
  let targets = Array.init sample (fun _ -> Random.State.int rng n) in
  let pairs =
    Array.init (sample * sample) (fun i ->
        (sources.(i / sample), targets.(i mod sample)))
  in
  for i = Array.length pairs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- t
  done;
  let batch = Array.length pairs in
  Format.fprintf ppf "graph: |V| = %d, |E| = %d (CSR %d bytes)@." (Digraph.n g)
    (Digraph.m g) csr_bytes;
  (* BFS oracle: one descendants sweep per distinct source. *)
  let desc = Hashtbl.create sample in
  let (), oracle_s =
    time (fun () ->
        Array.iter
          (fun u ->
            if not (Hashtbl.mem desc u) then
              Hashtbl.add desc u (Traversal.descendants g u))
          sources)
  in
  let expected =
    Array.map
      (fun (u, v) ->
        match Hashtbl.find_opt desc u with
        | Some reachable -> u = v || Bitset.mem reachable v
        | None ->
            (* [sources] covers every query source by construction. *)
            failwith
              (Printf.sprintf "bench oracle: no descendants sweep for node %d"
                 u))
      pairs
  in
  Format.fprintf ppf
    "oracle: %d descendant sweeps in %.3fs (%d queries expected true)@."
    (Hashtbl.length desc) oracle_s
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 expected);
  (* Baseline: per-query BFS on G, on a slice the slow path can afford. *)
  let baseline_queries = min 64 batch in
  let hits = ref 0 in
  let (), bfs_s =
    time (fun () ->
        for i = 0 to baseline_queries - 1 do
          let u, v = pairs.(i) in
          if Reach_query.eval Reach_query.Bfs g ~source:u ~target:v then
            incr hits
        done)
  in
  let bfs_qps = float_of_int baseline_queries /. bfs_s in
  Format.fprintf ppf "BFS on G: %d queries in %.3fs (%.0f q/s)@."
    baseline_queries bfs_s bfs_qps;
  let c, compress_s = time (fun () -> Compress_reach.compress g) in
  let gr = Compressed.graph c in
  Format.fprintf ppf "compressR: %.3fs, |Vr| = %d, |Er| = %d@." compress_s
    (Digraph.n gr) (Digraph.m gr);
  let verify name answers =
    Array.iteri
      (fun i a ->
        if a <> expected.(i) then begin
          let u, v = pairs.(i) in
          Printf.eprintf "bench reach: %s disagrees with BFS on QR(%d, %d)\n"
            name u v;
          exit 1
        end)
      answers
  in
  (* One sequential timed pass per engine for the latency percentiles, a
     separate batch pass for throughput (parallel over the default pool). *)
  let latencies eval =
    let lat =
      Array.map
        (fun (u, v) ->
          let t0 = Obs.Clock.now_ns () in
          ignore (eval ~source:u ~target:v);
          Obs.Clock.now_ns () - t0)
        pairs
    in
    Array.sort Mono.icompare lat;
    lat
  in
  let row name ~build_s ~memory ~qps ~lat =
    Format.fprintf ppf
      "%-12s build %7.3fs  %9d bytes  %10.0f q/s  p50 %5d ns  p99 %6d ns@."
      name build_s memory qps (percentile_ns lat 50) (percentile_ns lat 99)
  in
  let bench_index algo =
    let name = Reach_index.algorithm_name algo in
    let idx, build_s =
      time (fun () -> Compress_reach.index ~algorithm:algo c)
    in
    let answers, batch_s =
      time (fun () -> Reach_query.eval_pairs (Reach_index.query_into idx) pairs)
    in
    verify name answers;
    let qps = float_of_int batch /. batch_s in
    let lat = latencies (fun ~source ~target -> Reach_index.query idx ~source ~target) in
    row name ~build_s ~memory:(Reach_index.memory_bytes idx) ~qps ~lat;
    (name, build_s, Reach_index.memory_bytes idx, qps, lat, idx)
  in
  let index_rows = List.map bench_index Reach_index.all_algorithms in
  let tree_idx =
    match index_rows with (_, _, _, _, _, idx) :: _ -> idx | [] -> assert false
  in
  let pl, plan_s = time (fun () -> Planner.create ~index:tree_idx g) in
  let answers, batch_s =
    time (fun () -> Reach_query.eval_pairs (Planner.eval_into pl) pairs)
  in
  verify "planner" answers;
  let planner_qps = float_of_int batch /. batch_s in
  let planner_lat =
    latencies (fun ~source ~target -> Planner.eval pl ~source ~target)
  in
  row "planner" ~build_s:plan_s ~memory:(Reach_index.memory_bytes tree_idx)
    ~qps:planner_qps ~lat:planner_lat;
  Format.fprintf ppf
    "planner batch: %.0f q/s = %.0fx the BFS-on-G baseline (route %s)@."
    planner_qps (planner_qps /. bfs_qps)
    (Planner.route_name (Planner.route pl));
  let algo_json =
    String.concat ",\n"
      (List.map
         (fun (name, build_s, memory, qps, lat, _) ->
           Printf.sprintf
             "    \"%s\": { \"build_s\": %.4f, \"memory_bytes\": %d, \
              \"qps\": %.1f, \"p50_ns\": %d, \"p99_ns\": %d }"
             name build_s memory qps (percentile_ns lat 50)
             (percentile_ns lat 99))
         index_rows)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"nodes\": %d,\n\
      \  \"edges\": %d,\n\
      \  \"seed\": %d,\n\
      \  \"scale\": %g,\n\
      \  \"csr_bytes\": %d,\n\
      \  \"compress_s\": %.4f,\n\
      \  \"quotient_nodes\": %d,\n\
      \  \"quotient_edges\": %d,\n\
      \  \"batch_queries\": %d,\n\
      \  \"bfs_baseline_qps\": %.1f,\n\
      \  \"verified_against_bfs\": true,\n\
      \  \"indexes\": {\n%s\n  },\n\
      \  \"planner\": { \"create_s\": %.4f, \"route\": \"%s\", \"qps\": %.1f, \
       \"p50_ns\": %d, \"p99_ns\": %d, \"speedup_vs_bfs\": %.1f }\n\
       }\n"
      (Digraph.n g) (Digraph.m g) opts.Experiments.seed opts.Experiments.scale
      csr_bytes compress_s (Digraph.n gr) (Digraph.m gr) batch bfs_qps
      algo_json plan_s
      (Planner.route_name (Planner.route pl))
      planner_qps
      (percentile_ns planner_lat 50)
      (percentile_ns planner_lat 99)
      (planner_qps /. bfs_qps)
  in
  let path = "BENCH_reach.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Format.fprintf ppf "(json written to %s)@." path

(* ------------------------------------------------------------------ *)
(* Bisimulation microbench: compressB and bare Paige-Tarjan throughput over
   one generated 100k-node labeled graph (scaled by --scale), written to
   BENCH_bisim.json so the refinement-engine numbers are tracked in CI.
   The committed baseline keeps the pre-rewrite (hashtable counts, int-list
   X-blocks) figures alongside the current run for comparison.  Measured
   single-domain: the parallel pre-split is bit-identical and CI has one
   CPU. *)

let run_bisim opts () =
  section "Bisimulation microbench (compressB + Paige-Tarjan)";
  let n = max 1024 (int_of_float (100_000. *. opts.Experiments.scale)) in
  let m = 3 * n in
  let rng = Random.State.make [| opts.Experiments.seed; 0xB15 |] in
  let g, build_s =
    Obs.time (fun () ->
        let g = Generators.erdos_renyi rng ~n ~m in
        Generators.with_random_labels rng g ~label_count:8)
  in
  let time = Obs.time in
  let c, compress_s = time (fun () -> Compress_bisim.compress g) in
  let a, refine_s = time (fun () -> Bisimulation.max_bisimulation g) in
  let blocks = Array.fold_left (fun acc b -> Mono.imax acc (b + 1)) 0 a in
  let compress_eps = float_of_int (Digraph.m g) /. compress_s in
  let refine_eps = float_of_int (Digraph.m g) /. refine_s in
  (* Self-check: the refinement output must be a stable partition. *)
  let stable = Bisimulation.is_stable_partition g a in
  if not stable then
    failwith "bench bisim: refinement output is not a stable partition";
  Format.fprintf ppf "graph: |V| = %d, |E| = %d (built in %.3fs)@."
    (Digraph.n g) (Digraph.m g) build_s;
  Format.fprintf ppf "compressB: %.3fs (%.0f edges/s), |Vr| = %d@." compress_s
    compress_eps
    (Digraph.n (Compressed.graph c));
  Format.fprintf ppf
    "max_bisimulation: %.3fs (%.0f edges/s), %d blocks, stable: %b@." refine_s
    refine_eps blocks stable;
  let json =
    Printf.sprintf
      "{\n\
      \  \"nodes\": %d,\n\
      \  \"edges\": %d,\n\
      \  \"labels\": 8,\n\
      \  \"seed\": %d,\n\
      \  \"scale\": %g,\n\
      \  \"build_s\": %.4f,\n\
      \  \"compress_s\": %.4f,\n\
      \  \"compress_edges_per_s\": %.1f,\n\
      \  \"hypernodes\": %d,\n\
      \  \"refine_s\": %.4f,\n\
      \  \"refine_edges_per_s\": %.1f,\n\
      \  \"blocks\": %d,\n\
      \  \"stable\": %b,\n\
      \  \"phases\": {\n%s\n  }\n\
       }\n"
      (Digraph.n g) (Digraph.m g) opts.Experiments.seed opts.Experiments.scale
      build_s compress_s compress_eps
      (Digraph.n (Compressed.graph c))
      refine_s refine_eps blocks stable
      (phases_json (fun () -> Compress_bisim.compress g))
  in
  let path = "BENCH_bisim.json" in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Format.fprintf ppf "(json written to %s)@." path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure kernel, on
   small fixed inputs so individual runs stay fast. *)

let micro_tests opts =
  let open Bechamel in
  let scale = 0.35 *. opts.Experiments.scale in
  let mini = { opts with Experiments.scale } in
  let gen name =
    let spec = Datasets.find name in
    Datasets.generate_scaled ~seed:mini.Experiments.seed spec
      ~nodes:(int_of_float (float_of_int spec.Datasets.nodes *. scale))
      ~edges:(int_of_float (float_of_int spec.Datasets.edges *. scale))
  in
  let p2p = gen "P2P" in
  let citation = gen "Citation" in
  let cit_compressed = Compress_bisim.compress citation in
  let p2p_compressed = Compress_reach.compress p2p in
  let rng = Random.State.make [| mini.Experiments.seed |] in
  let pairs = Reach_query.random_pairs rng p2p ~count:16 in
  let pattern = Pattern_gen.anchored rng citation ~nodes:4 ~edges:4 ~max_bound:3 in
  let ins_batch = Update_gen.insertions rng p2p ~count:50 in
  let mixed_batch = Update_gen.mixed rng citation ~count:50 ~insert_frac:0.5 in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    t "table1/compressR(P2P)" (fun () -> Compress_reach.compress p2p);
    t "table1/aho(P2P)" (fun () -> Transitive.aho_reduction p2p);
    t "table2/compressB(Citation)" (fun () -> Compress_bisim.compress citation);
    t "fig12a/bfs-on-G" (fun () ->
        Array.iter
          (fun (u, v) ->
            ignore (Reach_query.eval Reach_query.Bfs p2p ~source:u ~target:v))
          pairs);
    t "fig12a/bfs-on-Gr" (fun () ->
        Array.iter
          (fun (u, v) ->
            ignore (Compress_reach.answer p2p_compressed ~source:u ~target:v))
          pairs);
    t "fig12b/match-on-G" (fun () -> Bounded_sim.eval pattern citation);
    t "fig12b/match-on-Gr" (fun () ->
        Compress_bisim.answer pattern cit_compressed);
    t "fig12d/2hop-on-Gr" (fun () ->
        Two_hop.build (Compressed.graph p2p_compressed));
    t "fig12ef/incRCM-batch" (fun () ->
        let inc = Inc_reach.of_compressed p2p p2p_compressed in
        Inc_reach.apply inc ins_batch);
    t "fig12g/incPCM-batch" (fun () ->
        let inc = Inc_bisim.of_compressed citation cit_compressed in
        Inc_bisim.apply inc mixed_batch);
    t "fig12h/incBMatch-batch" (fun () ->
        let im = Inc_match.create pattern citation in
        Inc_match.apply im mixed_batch);
    t "fig12ik/densification-step" (fun () ->
        let rng = Random.State.make [| 5 |] in
        let g = Generators.erdos_renyi rng ~n:1000 ~m:1500 in
        Compress_reach.compress g);
  ]

(* Seq-vs-parallel speedup rows: each kernel timed once on a 1-domain pool
   and once on the --domains pool, on the same ER graph, asserting the
   outputs agree bit for bit.  At --scale 1.0 the graph has 20k nodes (the
   scale knob shrinks it for smoke tests). *)
let run_speedup opts () =
  let par_pool = Pool.default () in
  let domains = Pool.domains par_pool in
  section (Printf.sprintf "seq vs parallel (domains=%d)" domains);
  let time = Obs.time in
  let n = max 512 (int_of_float (20000. *. opts.Experiments.scale)) in
  let m = 3 * n / 2 in
  let rng = Random.State.make [| opts.Experiments.seed; 2024 |] in
  let g = Generators.erdos_renyi rng ~n ~m in
  let pairs = Reach_query.random_pairs rng g ~count:(4 * 1024) in
  Format.fprintf ppf "ER graph: |V| = %d, |E| = %d@." (Digraph.n g)
    (Digraph.m g);
  Format.fprintf ppf "%-34s %10s %10s %9s@." "kernel" "seq(s)" "par(s)"
    "speedup";
  let all_ok = ref true in
  Pool.with_pool ~domains:1 (fun seq_pool ->
      let row name ~seq ~par ~equal =
        let rs, ts = time seq in
        let rp, tp = time par in
        if not (equal rs rp) then all_ok := false;
        Format.fprintf ppf "%-34s %10.3f %10.3f %8.2fx@." name ts tp
          (if tp > 0. then ts /. tp else 1.)
      in
      let compressed_equal a b =
        Digraph.equal (Compressed.graph a) (Compressed.graph b)
        && a.Compressed.node_map = b.Compressed.node_map
      in
      row "compress_paper (per-node BFS)"
        ~seq:(fun () -> Compress_reach.compress_paper ~pool:seq_pool g)
        ~par:(fun () -> Compress_reach.compress_paper ~pool:par_pool g)
        ~equal:compressed_equal;
      row "transitive closure"
        ~seq:(fun () -> Transitive.descendant_sets ~pool:seq_pool g)
        ~par:(fun () -> Transitive.descendant_sets ~pool:par_pool g)
        ~equal:(fun a b ->
          Array.length a = Array.length b
          && Array.for_all2 Bitset.equal a b);
      row "eval_batch (4096 BFS queries)"
        ~seq:(fun () ->
          Reach_query.eval_batch ~pool:seq_pool Reach_query.Bfs g pairs)
        ~par:(fun () ->
          Reach_query.eval_batch ~pool:par_pool Reach_query.Bfs g pairs)
        ~equal:( = ));
  Format.fprintf ppf "parallel outputs identical to sequential: %s@."
    (if !all_ok then "ok" else "MISMATCH");
  if not !all_ok then exit 1

let run_micro opts () =
  section "Bechamel micro-benchmarks";
  let open Bechamel in
  let tests = micro_tests opts in
  let grouped = Test.make_grouped ~name:"qpgc" ~fmt:"%s/%s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Format.fprintf ppf "%-34s %14s@." "benchmark" "time/run";
  List.iter
    (fun (name, est) ->
      let ns = Analyze.OLS.estimates est in
      let value = match ns with Some [ v ] -> v | _ -> nan in
      let pretty =
        if value > 1e9 then Printf.sprintf "%8.3f  s" (value /. 1e9)
        else if value > 1e6 then Printf.sprintf "%8.3f ms" (value /. 1e6)
        else if value > 1e3 then Printf.sprintf "%8.3f us" (value /. 1e3)
        else Printf.sprintf "%8.1f ns" value
      in
      Format.fprintf ppf "%-34s %14s@." name pretty)
    rows;
  run_speedup opts ()

(* ------------------------------------------------------------------ *)
(* Query daemon: spawn the real `qpgc serve` binary, drive it with the
   in-process loadgen client at several concurrency levels, and compare
   against a fork-per-query `qpgc query` baseline.  The daemon must be a
   separate process (this bench already owns pool worker domains, so
   forking here would be unsafe); the binary is located relative to the
   bench executable inside _build, overridable with QPGC_BIN.  Written to
   BENCH_serve.json so the serving-layer numbers are tracked in CI. *)

let qpgc_bin () =
  match Sys.getenv_opt "QPGC_BIN" with
  | Some p -> p
  | None ->
      Filename.concat
        (Filename.concat
           (Filename.dirname (Filename.dirname Sys.executable_name))
           "bin")
        "qpgc.exe"

let wait_for path =
  let t0 = Obs.Clock.now_ns () in
  while (not (Sys.file_exists path)) && Obs.Clock.elapsed_s t0 < 30.0 do
    Unix.sleepf 0.05
  done;
  if not (Sys.file_exists path) then begin
    Printf.eprintf "bench serve: daemon did not become ready (%s)\n" path;
    exit 1
  end

let run_child qpgc args out_fd =
  let pid = Unix.create_process qpgc (Array.of_list (qpgc :: args)) Unix.stdin out_fd out_fd in
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c ->
      Printf.eprintf "bench serve: %s exited with %d\n"
        (String.concat " " args) c;
      exit 1
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Printf.eprintf "bench serve: %s killed by signal %d\n"
        (String.concat " " args) s;
      exit 1

let run_serve opts () =
  section "Query daemon (serve + loadgen vs fork-per-query)";
  let qpgc = qpgc_bin () in
  if not (Sys.file_exists qpgc) then begin
    Printf.eprintf
      "bench serve: qpgc binary not found at %s (build bin/ first or set \
       QPGC_BIN)\n"
      qpgc;
    exit 1
  end;
  let n = max 1024 (int_of_float (20_000. *. opts.Experiments.scale)) in
  let m = 3 * n in
  let rng = Random.State.make [| opts.Experiments.seed; 0x5E2 |] in
  let g = Generators.erdos_renyi rng ~n ~m in
  Format.fprintf ppf "graph: |V| = %d, |E| = %d@." (Digraph.n g) (Digraph.m g);
  (* Query mix reused at every concurrency level; the oracle needs one
     descendants sweep per distinct source, so sources are drawn from a
     small sample. *)
  let sample = min 128 n in
  let sources = Array.init sample (fun _ -> Random.State.int rng n) in
  let queries = 16_384 in
  let pairs =
    Array.init queries (fun i -> (sources.(i mod sample), Random.State.int rng n))
  in
  let desc = Hashtbl.create sample in
  let (), oracle_s =
    Obs.time (fun () ->
        Array.iter
          (fun u ->
            if not (Hashtbl.mem desc u) then
              Hashtbl.add desc u (Traversal.descendants g u))
          sources)
  in
  let expected =
    Array.map
      (fun (u, v) ->
        match Hashtbl.find_opt desc u with
        | Some reachable -> u = v || Bitset.mem reachable v
        | None ->
            failwith
              (Printf.sprintf "bench serve: no descendants sweep for node %d" u))
      pairs
  in
  Format.fprintf ppf "oracle: %d descendant sweeps in %.3fs@."
    (Hashtbl.length desc) oracle_s;
  with_temp_file (fun snap ->
      Graph_io.save_binary ~format:Digraph.Flat snap g;
      let batch = 256 in
      let verify name answers =
        Array.iteri
          (fun i a ->
            if a <> expected.(i) then begin
              let u, v = pairs.(i) in
              Printf.eprintf
                "bench serve: %s disagrees with BFS on QR(%d, %d)\n" name u v;
              exit 1
            end)
          answers
      in
      (* Spawn one `qpgc serve` process with [extra] flags around [f];
         drain it through the protocol afterwards and insist on a clean
         exit.  The kill in the finally is belt and braces for the error
         paths. *)
      let with_daemon ~tag ~extra f =
        let sock = Printf.sprintf "%s.%s.sock" snap tag in
        let ready = Printf.sprintf "%s.%s.ready" snap tag in
        let log = Printf.sprintf "%s.%s.log" snap tag in
        let daemon_pid =
          let fd =
            Unix.openfile log
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
              0o644
          in
          let pid =
            Unix.create_process qpgc
              (Array.of_list
                 ([
                    qpgc; "serve"; snap; "--socket"; sock; "--ready-file";
                    ready; "--domains"; "1";
                  ]
                 @ extra))
              Unix.stdin fd fd
          in
          Unix.close fd;
          pid
        in
        Fun.protect
          ~finally:(fun () ->
            (match Unix.waitpid [ Unix.WNOHANG ] daemon_pid with
            | 0, _ ->
                (try Unix.kill daemon_pid Sys.sigkill
                 with Unix.Unix_error _ -> ());
                ignore (Unix.waitpid [] daemon_pid)
            | _ -> ()
            | exception Unix.Unix_error _ -> ());
            List.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              [ sock; ready; log ])
          (fun () ->
            wait_for ready;
            let connect () = Server_client.connect_unix sock in
            let r = f ~connect in
            let c = connect () in
            let ack =
              Fun.protect
                ~finally:(fun () -> Server_client.close c)
                (fun () -> Server_client.shutdown c)
            in
            Format.fprintf ppf "shutdown[%s]: %s@." tag ack;
            (match Unix.waitpid [] daemon_pid with
            | _, Unix.WEXITED 0 -> ()
            | _, _ ->
                Printf.eprintf "bench serve: daemon did not exit cleanly\n";
                exit 1);
            r)
      in
      let levels =
        with_daemon ~tag:"main" ~extra:[] (fun ~connect ->
            List.map
              (fun concurrency ->
                let res =
                  Server_loadgen.run ~connect ~concurrency ~batch ~pairs
                in
                verify (Printf.sprintf "loadgen c=%d" concurrency)
                  res.Server_loadgen.answers;
                let p50 =
                  Server_loadgen.percentile res.Server_loadgen.latencies_us
                    50.0
                in
                let p99 =
                  Server_loadgen.percentile res.Server_loadgen.latencies_us
                    99.0
                in
                Format.fprintf ppf
                  "loadgen c=%-2d batch=%d: %9.0f q/s  p50 %6.0f us  p99 \
                   %6.0f us@."
                  concurrency batch res.Server_loadgen.qps p50 p99;
                (concurrency, res.Server_loadgen.qps, p50, p99))
              [ 1; 4 ])
      in
      (* Fork-per-query baseline: every query pays process startup,
         snapshot load and planning — the economics serve exists to
         fix. *)
      let baseline_queries = 12 in
      let null_fd = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let (), baseline_s =
        Obs.time (fun () ->
            for i = 0 to baseline_queries - 1 do
              let u, v = pairs.(i) in
              run_child qpgc
                [ "query"; snap; string_of_int u; string_of_int v; "--planner" ]
                null_fd
            done)
      in
      Unix.close null_fd;
      let baseline_qps = float_of_int baseline_queries /. baseline_s in
      Format.fprintf ppf
        "fork-per-query baseline: %d queries in %.3fs (%.1f q/s)@."
        baseline_queries baseline_s baseline_qps;
      let best_qps =
        List.fold_left (fun acc (_, qps, _, _) -> Float.max acc qps) 0.0 levels
      in
      Format.fprintf ppf "daemon vs fork-per-query: %.0fx@."
        (best_qps /. baseline_qps);
      (* Telemetry overhead gate: the always-on plane (per-frame flight
         sampling, rolling windows, a bound scrape listener, info-level
         logs) must cost at most 3% of single-connection qps against a
         daemon with all of it turned off.  Both daemons are alive at
         once and the runs interleave (best of three each) so CPU
         frequency drift cannot masquerade as telemetry cost; each run
         replays the query set four times to stretch the measurement
         window past scheduler noise. *)
      let ab_rounds = 4 in
      let ab_pairs =
        Array.init (ab_rounds * queries) (fun i -> pairs.(i mod queries))
      in
      let measure ~connect tag =
        let res =
          Server_loadgen.run ~connect ~concurrency:1 ~batch ~pairs:ab_pairs
        in
        Array.iteri
          (fun i a ->
            if a <> expected.(i mod queries) then begin
              let u, v = ab_pairs.(i) in
              Printf.eprintf
                "bench serve: %s disagrees with BFS on QR(%d, %d)\n" tag u v;
              exit 1
            end)
          res.Server_loadgen.answers;
        res.Server_loadgen.qps
      in
      (* One fresh daemon per sample: warm-up run, then best of two
         measured runs.  Daemon processes inherit run-to-run placement
         luck (cache/NUMA) that persists for their lifetime and dwarfs
         the effect under test, so each side is sampled across two
         daemons in ABBA spawn order — averaging the two cancels the
         spawn-order bias to first order. *)
      let measure_daemon ~tag ~extra =
        with_daemon ~tag ~extra (fun ~connect ->
            ignore (measure ~connect tag);
            let best = ref 0.0 in
            for _ = 1 to 3 do
              best := Float.max !best (measure ~connect tag)
            done;
            !best)
      in
      let off_extra =
        [
          "--log-level"; "off"; "--sample-every"; "0"; "--slow-us";
          "1000000000";
        ]
      in
      let run_on tag =
        let http_sock = Printf.sprintf "%s.%s.http" snap tag in
        let q =
          measure_daemon ~tag ~extra:[ "--http-socket"; http_sock ]
        in
        (try Sys.remove http_sock with Sys_error _ -> ());
        q
      in
      let on1 = run_on "telemetry-on1" in
      let off1 = measure_daemon ~tag:"telemetry-off1" ~extra:off_extra in
      let off2 = measure_daemon ~tag:"telemetry-off2" ~extra:off_extra in
      let on2 = run_on "telemetry-on2" in
      let qps_on = (on1 +. on2) /. 2.0 in
      let qps_off = (off1 +. off2) /. 2.0 in
      let overhead_pct = (qps_off -. qps_on) /. qps_off *. 100.0 in
      Format.fprintf ppf
        "telemetry: on %.0f q/s, off %.0f q/s, overhead %.2f%%@." qps_on
        qps_off overhead_pct;
      if overhead_pct > 3.0 then begin
        Printf.eprintf
          "bench serve: telemetry overhead %.2f%% exceeds the 3%% qps gate\n"
          overhead_pct;
        exit 1
      end;
      let levels_json =
        String.concat ",\n"
          (List.map
             (fun (concurrency, qps, p50, p99) ->
               Printf.sprintf
                 "    { \"concurrency\": %d, \"batch\": %d, \"qps\": %.1f, \
                  \"p50_us\": %.1f, \"p99_us\": %.1f }"
                 concurrency batch qps p50 p99)
             levels)
      in
      let json =
        Printf.sprintf
          "{\n\
          \  \"nodes\": %d,\n\
          \  \"edges\": %d,\n\
          \  \"seed\": %d,\n\
          \  \"scale\": %g,\n\
          \  \"queries\": %d,\n\
          \  \"baseline\": { \"queries\": %d, \"qps\": %.1f },\n\
          \  \"levels\": [\n%s\n  ],\n\
          \  \"speedup_vs_fork\": %.1f,\n\
          \  \"telemetry\": { \"qps_on\": %.1f, \"qps_off\": %.1f, \
           \"overhead_pct\": %.2f, \"gate_pct\": 3.0 },\n\
          \  \"verified_against_bfs\": true\n\
           }\n"
          (Digraph.n g) (Digraph.m g) opts.Experiments.seed
          opts.Experiments.scale queries baseline_queries baseline_qps
          levels_json
          (best_qps /. baseline_qps)
          qps_on qps_off overhead_pct
      in
      let path = "BENCH_serve.json" in
      let oc = open_out path in
      output_string oc json;
      close_out oc;
      Format.fprintf ppf "(json written to %s)@." path)

(* ------------------------------------------------------------------ *)

let experiments =
  List.map (fun (name, report) -> (name, run_report name report))
    Experiments.all
  @ [
    ("micro", run_micro);
    ("speedup", run_speedup);
    ("csr", run_csr);
    ("storage", run_storage);
    ("reach", run_reach);
    ("bisim", run_bisim);
    ("serve", run_serve);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with
    | _exe :: rest -> rest
    | [] -> []
  in
  let scale = ref 1.0 and seed = ref 42 in
  let domains = ref (Pool.recommended ()) in
  let selected = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--domains" :: v :: rest ->
        domains := int_of_string v;
        parse rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        parse rest
    | name :: rest ->
        if List.mem_assoc name experiments then selected := name :: !selected
        else begin
          Printf.eprintf
            "unknown experiment %S; available: %s, or no argument for all\n"
            name
            (String.concat ", " (List.map fst experiments));
          exit 2
        end;
        parse rest
  in
  parse args;
  if !domains < 1 then (
    prerr_endline "--domains must be >= 1";
    exit 1);
  Pool.set_default_domains !domains;
  let opts = { Experiments.seed = !seed; scale = !scale } in
  let to_run =
    match List.rev !selected with
    | [] -> List.map fst experiments
    | picked -> picked
  in
  let t0 = Obs.Clock.now_ns () in
  List.iter (fun name -> (List.assoc name experiments) opts ()) to_run;
  Format.fprintf ppf "@.total bench time: %.1fs@." (Obs.Clock.elapsed_s t0)
