type opts = { seed : int; scale : float }

let default_opts = { seed = 42; scale = 1.0 }

let time = Obs.time

let scaled opts spec =
  let nodes = max 16 (int_of_float (opts.scale *. float_of_int spec.Datasets.nodes)) in
  let edges = max 16 (int_of_float (opts.scale *. float_of_int spec.Datasets.edges)) in
  Datasets.generate_scaled ~seed:opts.seed spec ~nodes ~edges

(* Independent dataset/series sweeps fan out over the process-wide pool
   (sequential unless the bench front end was given --domains).  Only
   ratio-computing sweeps use this: experiments whose rows ARE wall-clock
   timings stay sequential so concurrent arms cannot distort each other's
   measurements.  Kernels called inside a parallel sweep detect the nesting
   and run inline. *)
let pmap f xs = Pool.parallel_map_list (Pool.default ()) f xs

let pct o = match o with Some f -> Printf.sprintf "%6.3f%%" (100. *. f) | None -> "   n/a"

module Table1 = struct
  type row = {
    name : string;
    v : int;
    e : int;
    rc_aho : float;
    rc_scc : float;
    rc_r : float;
    paper_rc_aho : float option;
    paper_rc_scc : float option;
    paper_rc : float option;
  }

  (* like the paper, each measurement is the average of 5 runs (here:
     5 generator seeds — the computation itself is deterministic) *)
  let runs = 5

  let run ?(opts = default_opts) () =
    pmap
      (fun spec ->
        let samples =
          List.init runs (fun i ->
              let opts = { opts with seed = opts.seed + (1000 * i) } in
              let g = scaled opts spec in
              let c = Compress_reach.compress g in
              let aho = Transitive.aho_reduction g in
              let scc = Scc.compute g in
              let gscc = Scc.condensation g scc in
              ( Digraph.n g,
                Digraph.m g,
                float_of_int (Digraph.size aho) /. float_of_int (Digraph.size g),
                float_of_int (Compressed.size c)
                /. float_of_int (Digraph.size gscc),
                Compressed.ratio c ~original:g ))
        in
        let avg f =
          List.fold_left (fun acc x -> acc +. f x) 0.0 samples
          /. float_of_int runs
        in
        let v, e, _, _, _ =
          match samples with
          | s :: _ -> s
          | [] ->
              failwith
                (Printf.sprintf
                   "Experiments.reach_compression: no samples for dataset %s \
                    (runs = %d)"
                   spec.Datasets.name runs)
        in
        {
          name = spec.Datasets.name;
          v;
          e;
          rc_aho = avg (fun (_, _, a, _, _) -> a);
          rc_scc = avg (fun (_, _, _, b, _) -> b);
          rc_r = avg (fun (_, _, _, _, r) -> r);
          paper_rc_aho = spec.Datasets.paper_rc_aho;
          paper_rc_scc = spec.Datasets.paper_rc_scc;
          paper_rc = spec.Datasets.paper_rc;
        })
      Datasets.reach_datasets

  let print ppf rows =
    Format.fprintf ppf
      "Table 1: reachability preserving compression ratios@.";
    Format.fprintf ppf
      "%-12s %8s %8s | %8s %8s %8s | %8s %8s %8s (paper)@." "dataset" "|V|"
      "|E|" "RCaho" "RCscc" "RCr" "RCaho" "RCscc" "RCr";
    List.iter
      (fun r ->
        Format.fprintf ppf
          "%-12s %8d %8d | %7.3f%% %7.3f%% %7.3f%% | %8s %8s %8s@." r.name r.v
          r.e (100. *. r.rc_aho) (100. *. r.rc_scc) (100. *. r.rc_r)
          (pct r.paper_rc_aho) (pct r.paper_rc_scc) (pct r.paper_rc))
      rows;
    let avg =
      List.fold_left (fun acc r -> acc +. r.rc_r) 0.0 rows
      /. float_of_int (max 1 (List.length rows))
    in
    Format.fprintf ppf
      "average RCr = %.2f%%  (paper: ~5%% across datasets, i.e. a 95%% reduction)@."
      (100. *. avg)
  let csv rows =
    Csv.render
      ~header:[ "dataset"; "v"; "e"; "rc_aho_pct"; "rc_scc_pct"; "rc_r_pct" ]
      (List.map
         (fun r ->
           [ r.name; string_of_int r.v; string_of_int r.e;
             Csv.pct r.rc_aho; Csv.pct r.rc_scc; Csv.pct r.rc_r ])
         rows)

end

module Table2 = struct
  type row = {
    name : string;
    v : int;
    e : int;
    l : int;
    pc_r : float;
    paper_pc : float option;
  }

  let runs = 5

  let run ?(opts = default_opts) () =
    pmap
      (fun spec ->
        let samples =
          List.init runs (fun i ->
              let opts = { opts with seed = opts.seed + (1000 * i) } in
              let g = scaled opts spec in
              let c = Compress_bisim.compress g in
              ( Digraph.n g,
                Digraph.m g,
                Digraph.label_count g,
                Compressed.ratio c ~original:g ))
        in
        let v, e, l, _ =
          match samples with
          | s :: _ -> s
          | [] ->
              failwith
                (Printf.sprintf
                   "Experiments.pattern_compression: no samples for dataset \
                    %s (runs = %d)"
                   spec.Datasets.name runs)
        in
        {
          name = spec.Datasets.name;
          v;
          e;
          l;
          pc_r =
            List.fold_left (fun acc (_, _, _, r) -> acc +. r) 0.0 samples
            /. float_of_int runs;
          paper_pc = spec.Datasets.paper_pc;
        })
      Datasets.pattern_datasets

  let print ppf rows =
    Format.fprintf ppf "Table 2: pattern preserving compression ratios@.";
    Format.fprintf ppf "%-12s %8s %8s %5s | %8s | %8s (paper)@." "dataset"
      "|V|" "|E|" "|L|" "PCr" "PCr";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-12s %8d %8d %5d | %7.2f%% | %8s@." r.name r.v
          r.e r.l (100. *. r.pc_r) (pct r.paper_pc))
      rows;
    let avg =
      List.fold_left (fun acc r -> acc +. r.pc_r) 0.0 rows
      /. float_of_int (max 1 (List.length rows))
    in
    Format.fprintf ppf
      "average PCr = %.1f%%  (paper: ~43%%, i.e. a 57%% reduction)@."
      (100. *. avg)
  let csv rows =
    Csv.render ~header:[ "dataset"; "v"; "e"; "l"; "pc_r_pct" ]
      (List.map
         (fun r ->
           [ r.name; string_of_int r.v; string_of_int r.e; string_of_int r.l;
             Csv.pct r.pc_r ])
         rows)

end

module Fig1 = struct
  type t = {
    reach_reduction : float;  (** 1 - RCr *)
    pattern_reduction : float;  (** 1 - PCr *)
    reach_query_saving : float;  (** 1 - time(Gr)/time(G) *)
    pattern_query_saving : float;
  }

  (* The paper's opening figure: a real-life P2P network is reduced 94% /
     51% for reachability / pattern queries, cutting query time 93% / 77%. *)
  let run ?(opts = default_opts) () =
    let g = scaled opts (Datasets.find "P2P-l") in
    let rc = Compress_reach.compress g in
    let pc = Compress_bisim.compress g in
    let rng = Random.State.make [| opts.seed; 11 |] in
    let pairs = Reach_query.random_pairs rng g ~count:200 in
    let _, t_g =
      time (fun () ->
          Array.iter
            (fun (u, v) ->
              ignore (Reach_query.eval Reach_query.Bfs g ~source:u ~target:v))
            pairs)
    in
    let _, t_gr =
      time (fun () ->
          Array.iter
            (fun (u, v) -> ignore (Compress_reach.answer rc ~source:u ~target:v))
            pairs)
    in
    (* The pattern-time comparison uses the paper's own cubic Match
       formulation (distance matrix), whose cost is dominated by |V| — the
       effect the paper measures.  Run it at a scale where the matrix
       fits. *)
    let gp =
      scaled { opts with scale = 0.35 *. opts.scale } (Datasets.find "P2P-l")
    in
    let pcp = Compress_bisim.compress gp in
    let grp = Compressed.graph pcp in
    let patterns =
      List.init 5 (fun _ ->
          Pattern_gen.anchored rng gp ~nodes:4 ~edges:4 ~max_bound:2)
    in
    let _, p_g =
      time (fun () ->
          List.iter (fun p -> ignore (Bounded_sim.eval_matrix p gp)) patterns)
    in
    let _, p_gr =
      time (fun () ->
          List.iter
            (fun p ->
              ignore
                (Compressed.expand_result pcp (Bounded_sim.eval_matrix p grp)))
            patterns)
    in
    {
      reach_reduction = 1.0 -. Compressed.ratio rc ~original:g;
      pattern_reduction = 1.0 -. Compressed.ratio pc ~original:g;
      reach_query_saving = 1.0 -. (t_gr /. t_g);
      pattern_query_saving = 1.0 -. (p_gr /. p_g);
    }

  let print ppf r =
    Format.fprintf ppf "Fig 1: the headline, on the P2P stand-in@.";
    Format.fprintf ppf
      "  graph reduced %.0f%% for reachability queries (paper: 94%%)@."
      (100. *. r.reach_reduction);
    Format.fprintf ppf
      "  graph reduced %.0f%% for pattern queries      (paper: 51%%)@."
      (100. *. r.pattern_reduction);
    Format.fprintf ppf
      "  reachability query time cut by %.0f%%          (paper: 93%%)@."
      (100. *. r.reach_query_saving);
    Format.fprintf ppf
      "  pattern query time cut by %.0f%%               (paper: 77%%)@."
      (100. *. r.pattern_query_saving)

  let csv r =
    Csv.render
      ~header:
        [ "reach_reduction_pct"; "pattern_reduction_pct";
          "reach_query_saving_pct"; "pattern_query_saving_pct" ]
      [
        [ Csv.pct r.reach_reduction; Csv.pct r.pattern_reduction;
          Csv.pct r.reach_query_saving; Csv.pct r.pattern_query_saving ];
      ]
end

module Fig12a = struct
  type row = {
    name : string;
    bfs_g_ms : float;
    bibfs_g_ms : float;
    bfs_gr_ms : float;
    bibfs_gr_ms : float;
  }

  let datasets = [ "P2P"; "wikiVote"; "citHepTh"; "socEpinions"; "NotreDame" ]

  let run ?(opts = default_opts) () =
    List.map
      (fun name ->
        let spec = Datasets.find name in
        let g = scaled opts spec in
        let c = Compress_reach.compress g in
        let rng = Random.State.make [| opts.seed; 1201 |] in
        let pairs = Reach_query.random_pairs rng g ~count:100 in
        (* Whole-batch evaluation: under --domains > 1 the batch spreads
           over the pool, so the row measures parallel query throughput. *)
        let run_on eval_batch =
          let _, dt = time (fun () -> eval_batch ()) in
          1000. *. dt
        in
        let on_g algo () = Reach_query.eval_batch algo g pairs in
        let on_gr algo () =
          Compress_reach.answer_batch ~algorithm:algo c pairs
        in
        {
          name;
          bfs_g_ms = run_on (on_g Reach_query.Bfs);
          bibfs_g_ms = run_on (on_g Reach_query.Bibfs);
          bfs_gr_ms = run_on (on_gr Reach_query.Bfs);
          bibfs_gr_ms = run_on (on_gr Reach_query.Bibfs);
        })
      datasets

  let print ppf rows =
    Format.fprintf ppf
      "Fig 12(a): reachability query time, 100 random queries (%% of BFS on G)@.";
    Format.fprintf ppf "%-12s | %10s %10s %10s %10s | %8s %8s@." "dataset"
      "BFS G(ms)" "BiBFS G" "BFS Gr" "BiBFS Gr" "Gr/G BFS" "Gr/G BiB";
    List.iter
      (fun r ->
        let rel a b = if b <= 0. then 0. else 100. *. a /. b in
        Format.fprintf ppf
          "%-12s | %10.2f %10.2f %10.2f %10.2f | %7.1f%% %7.1f%%@." r.name
          r.bfs_g_ms r.bibfs_g_ms r.bfs_gr_ms r.bibfs_gr_ms
          (rel r.bfs_gr_ms r.bfs_g_ms)
          (rel r.bibfs_gr_ms r.bibfs_g_ms))
      rows;
    Format.fprintf ppf
      "(paper: evaluation on Gr is a few %% of the cost on G, e.g. 2%% for socEpinions)@."
  let csv rows =
    Csv.render
      ~header:[ "dataset"; "bfs_g_ms"; "bibfs_g_ms"; "bfs_gr_ms"; "bibfs_gr_ms" ]
      (List.map
         (fun r ->
           [ r.name; Csv.float r.bfs_g_ms; Csv.float r.bibfs_g_ms;
             Csv.float r.bfs_gr_ms; Csv.float r.bibfs_gr_ms ])
         rows)

end

module Fig12b = struct
  type row = {
    pattern_size : int * int * int;
    series : (string * float) list;
  }

  let sweep = [ (3, 3, 3); (4, 4, 3); (5, 5, 3); (6, 6, 3); (7, 7, 3); (8, 8, 3) ]
  let patterns_per_point = 5

  let match_time rng p_list eval =
    let (), dt = time (fun () -> List.iter (fun p -> ignore (eval p)) p_list) in
    ignore rng;
    dt /. float_of_int (List.length p_list)

  let run_on_datasets ?(opts = default_opts) named_graphs =
    List.map
      (fun (vp, ep, k) ->
        let series =
          List.concat_map
            (fun (name, g, c) ->
              let rng = Random.State.make [| opts.seed; vp; ep; k |] in
              (* Anchored patterns guarantee non-empty answers, so the cost
                 reflects real match work and scales with the pattern. *)
              let ps =
                List.init patterns_per_point (fun _ ->
                    Pattern_gen.anchored rng g ~nodes:vp ~edges:ep ~max_bound:k)
              in
              let tg = match_time rng ps (fun p -> Bounded_sim.eval p g) in
              let tr =
                match_time rng ps (fun p -> Compress_bisim.answer p c)
              in
              [ ("Match on " ^ name, tg); ("Match on " ^ name ^ "r", tr) ])
            named_graphs
        in
        { pattern_size = (vp, ep, k); series })
      sweep

  let run ?(opts = default_opts) () =
    let graphs =
      List.map
        (fun (label, dataset) ->
          let g = scaled opts (Datasets.find dataset) in
          (label, g, Compress_bisim.compress g))
        [ ("Youtube", "Youtube-l"); ("Citation", "Citation") ]
    in
    run_on_datasets ~opts graphs

  let print ppf rows =
    Format.fprintf ppf
      "Fig 12(b): Match time vs pattern size (seconds, avg of %d patterns)@."
      patterns_per_point;
    (match rows with
    | [] -> ()
    | first :: _ ->
        Format.fprintf ppf "%-10s" "(Vp,Ep,k)";
        List.iter
          (fun (name, _) -> Format.fprintf ppf " %20s" name)
          first.series;
        Format.fprintf ppf "@.");
    List.iter
      (fun r ->
        let vp, ep, k = r.pattern_size in
        Format.fprintf ppf "(%d,%d,%d)  " vp ep k;
        List.iter (fun (_, t) -> Format.fprintf ppf " %20.4f" t) r.series;
        Format.fprintf ppf "@.")
      rows;
    Format.fprintf ppf
      "(paper: Match on compressed graphs runs in ~30%% of the original time)@."
  let csv rows =
    let header =
      "vp" :: "ep" :: "k"
      :: (match rows with
         | [] -> []
         | first :: _ -> List.map fst first.series)
    in
    Csv.render ~header
      (List.map
         (fun r ->
           let vp, ep, k = r.pattern_size in
           string_of_int vp :: string_of_int ep :: string_of_int k
           :: List.map (fun (_, t) -> Csv.float t) r.series)
         rows)

end

module Fig12c = struct
  let run ?(opts = default_opts) () =
    let rng = Random.State.make [| opts.seed; 3301 |] in
    let n = max 64 (int_of_float (5000. *. opts.scale)) in
    let m = max 64 (int_of_float (43500. *. opts.scale)) in
    (* The paper's generator produces compressible synthetic graphs; plain
       Erdos-Renyi has no bisimilar structure, so duplicate out-lists the
       same way the dataset stand-ins do. *)
    let graphs =
      List.map
        (fun l ->
          let base = Generators.erdos_renyi rng ~n ~m in
          let g = Generators.with_random_labels rng base ~label_count:l in
          let spec =
            { (Datasets.find "P2P-l") with Datasets.labels = l }
          in
          ignore spec;
          let g =
            (* duplicate ~half the nodes' out-lists to create twins *)
            let rng2 = Random.State.make [| opts.seed; l |] in
            let labels = Array.copy (Digraph.labels g) in
            let out =
              Array.init n (fun v ->
                  let base, start, len = Digraph.succ_slice g v in
                  Array.init len (fun i -> base.{start + i}))
            in
            for _ = 1 to n / 2 do
              let v = Random.State.int rng2 n in
              let t = Random.State.int rng2 n in
              if t <> v then begin
                labels.(v) <- labels.(t);
                out.(v) <- out.(t)
              end
            done;
            let edges = ref [] in
            Array.iteri
              (fun v succs ->
                Array.iter (fun w -> edges := (v, w) :: !edges) succs)
              out;
            Digraph.make ~n ~labels !edges
          in
          (Printf.sprintf "G(|L|=%d)" l, g, Compress_bisim.compress g))
        [ 10; 20 ]
    in
    Fig12b.run_on_datasets ~opts graphs

  let print ppf rows =
    Format.fprintf ppf "Fig 12(c): synthetic |V|=5K variant of the sweep below@.";
    Fig12b.print ppf rows

  (* Same row shape as Fig 12(b), but a named entry so callers cannot write
     the fig12c CSV through the wrong module again. *)
  let csv rows = Fig12b.csv rows
end

module Fig12d = struct
  type row = {
    name : string;
    g_mb : float;
    gr_mb : float;
    twohop_g_mb : float;
    twohop_gr_mb : float;
  }

  let datasets =
    [ "P2P"; "wikiVote"; "citHepTh"; "socEpinions"; "facebook"; "NotreDame" ]

  let mb bytes = float_of_int bytes /. (1024. *. 1024.)

  let run ?(opts = default_opts) () =
    List.map
      (fun name ->
        let spec = Datasets.find name in
        let g = scaled opts spec in
        let c = Compress_reach.compress g in
        let gr = Compressed.graph c in
        let th_g = Two_hop.build g in
        let th_gr = Two_hop.build gr in
        {
          name;
          g_mb = mb (Digraph.memory_bytes g);
          gr_mb = mb (Digraph.memory_bytes gr);
          twohop_g_mb = mb (Two_hop.memory_bytes th_g);
          twohop_gr_mb = mb (Two_hop.memory_bytes th_gr);
        })
      datasets

  let print ppf rows =
    Format.fprintf ppf "Fig 12(d): memory cost (MB)@.";
    Format.fprintf ppf "%-12s | %10s %10s %12s %12s@." "dataset" "G" "Gr"
      "2-hop on G" "2-hop on Gr";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-12s | %10.3f %10.3f %12.3f %12.3f@." r.name
          r.g_mb r.gr_mb r.twohop_g_mb r.twohop_gr_mb)
      rows;
    Format.fprintf ppf
      "(paper: Gr saves >=92%% of G's memory; 2-hop indexes dwarf both, and@.";
    Format.fprintf ppf
      " building 2-hop over the small Gr stays cheap where G may be infeasible)@."
  let csv rows =
    Csv.render
      ~header:[ "dataset"; "g_mb"; "gr_mb"; "twohop_g_mb"; "twohop_gr_mb" ]
      (List.map
         (fun r ->
           [ r.name; Csv.float r.g_mb; Csv.float r.gr_mb;
             Csv.float r.twohop_g_mb; Csv.float r.twohop_gr_mb ])
         rows)

end

module Fig12ef = struct
  type row = {
    delta_e : int;
    inc_s : float;
    batch_paper_s : float;  (* the paper\'s quadratic compressR (Fig 5) *)
    batch_opt_s : float;  (* this library\'s optimised compressR *)
  }

  (* The paper compares incRCM against its own per-node-BFS compressR; our
     optimised batch algorithm (condensation + bitsets) is orders of
     magnitude faster than the quadratic bound, so both baselines are
     reported.  Run at half scale because the faithful baseline is
     quadratic. *)
  let run ?(opts = default_opts) ~deletions () =
    let opts = { opts with scale = 0.5 *. opts.scale } in
    let spec = Datasets.find "socEpinions" in
    let g = scaled opts spec in
    let rng = Random.State.make [| opts.seed; 9917 |] in
    let step =
      max 1 (int_of_float (float_of_int (Digraph.m g) *. 0.025))
    in
    let inc = Inc_reach.create g in
    let rows = ref [] in
    let total = ref 0 in
    for _ = 1 to 9 do
      let batch =
        if deletions then Update_gen.deletions rng (Inc_reach.graph inc) ~count:step
        else Update_gen.insertions rng (Inc_reach.graph inc) ~count:step
      in
      total := !total + List.length batch;
      let _, inc_s = time (fun () -> Inc_reach.apply inc batch) in
      let _, batch_paper_s =
        time (fun () -> Compress_reach.compress_paper (Inc_reach.graph inc))
      in
      let _, batch_opt_s =
        time (fun () -> Compress_reach.compress (Inc_reach.graph inc))
      in
      rows := { delta_e = !total; inc_s; batch_paper_s; batch_opt_s } :: !rows
    done;
    List.rev !rows

  let print ppf ~deletions rows =
    Format.fprintf ppf
      "Fig 12(%s): incRCM vs compressR under %s on socEpinions@."
      (if deletions then "f" else "e")
      (if deletions then "edge deletions" else "edge insertions");
    Format.fprintf ppf "%10s | %12s %16s %14s | %s@." "|dE|" "incRCM(s)"
      "compressR-Fig5(s)" "compressR-opt(s)" "winner vs Fig5";
    List.iter
      (fun r ->
        Format.fprintf ppf "%10d | %12.4f %16.4f %14.4f | %s@." r.delta_e
          r.inc_s r.batch_paper_s r.batch_opt_s
          (if r.inc_s < r.batch_paper_s then "incRCM" else "compressR"))
      rows;
    Format.fprintf ppf
      "(paper: incRCM beats its quadratic compressR while updates stay under ~20%%/22%% of |E|;@.";
    Format.fprintf ppf
      " our optimised batch compressR moves that crossover far earlier - both shown)@."
  let csv rows =
    Csv.render
      ~header:[ "delta_e"; "inc_s"; "batch_fig5_s"; "batch_opt_s" ]
      (List.map
         (fun r ->
           [ string_of_int r.delta_e; Csv.float r.inc_s;
             Csv.float r.batch_paper_s; Csv.float r.batch_opt_s ])
         rows)

end

module Fig12g = struct
  type row = {
    delta_e : int;
    incpcm_s : float;
    incbsim_s : float;
    batch_s : float;
  }

  let run ?(opts = default_opts) () =
    let spec = Datasets.find "Youtube-l" in
    let g = scaled opts spec in
    let rng = Random.State.make [| opts.seed; 5501 |] in
    (* The paper's x-axis runs 0.8K..5.6K updates on 796K edges: 0.1%% per
       step.  Same fraction here. *)
    let step = max 1 (int_of_float (float_of_int (Digraph.m g) *. 0.001)) in
    let inc = Inc_bisim.create g in
    let inc_one = Inc_bisim.create g in
    let rows = ref [] in
    let total = ref 0 in
    for _ = 1 to 7 do
      let batch =
        Update_gen.mixed rng (Inc_bisim.graph inc) ~count:step ~insert_frac:0.5
      in
      total := !total + List.length batch;
      let _, incpcm_s = time (fun () -> Inc_bisim.apply inc batch) in
      let _, incbsim_s =
        time (fun () -> Inc_bisim.apply_one_by_one inc_one batch)
      in
      let _, batch_s =
        time (fun () -> Compress_bisim.compress (Inc_bisim.graph inc))
      in
      rows := { delta_e = !total; incpcm_s; incbsim_s; batch_s } :: !rows
    done;
    List.rev !rows

  let print ppf rows =
    Format.fprintf ppf
      "Fig 12(g): incPCM vs IncBsim vs compressB, mixed updates on Youtube@.";
    Format.fprintf ppf "%10s | %12s %12s %12s@." "|dE|" "incPCM(s)"
      "IncBsim(s)" "compressB(s)";
    List.iter
      (fun r ->
        Format.fprintf ppf "%10d | %12.4f %12.4f %12.4f@." r.delta_e
          r.incpcm_s r.incbsim_s r.batch_s)
      rows;
    Format.fprintf ppf
      "(paper: incPCM beats compressB for small batches and always beats IncBsim)@."
  let csv rows =
    Csv.render ~header:[ "delta_e"; "incpcm_s"; "incbsim_s"; "compressb_s" ]
      (List.map
         (fun r ->
           [ string_of_int r.delta_e; Csv.float r.incpcm_s;
             Csv.float r.incbsim_s; Csv.float r.batch_s ])
         rows)

end

module Fig12h = struct
  type row = { delta_e : int; incbmatch_s : float; incpcm_match_s : float }

  let run ?(opts = default_opts) () =
    let spec = Datasets.find "Citation" in
    let g = scaled opts spec in
    let rng = Random.State.make [| opts.seed; 7703 |] in
    let pattern = Pattern_gen.anchored rng g ~nodes:4 ~edges:4 ~max_bound:3 in
    let step = max 1 (int_of_float (float_of_int (Digraph.m g) *. 0.01)) in
    let im = Inc_match.create pattern g in
    let inc = Inc_bisim.create g in
    let rows = ref [] in
    let total = ref 0 in
    let cum_a = ref 0.0 and cum_b = ref 0.0 in
    for _ = 1 to 7 do
      let batch =
        Update_gen.mixed rng (Inc_bisim.graph inc) ~count:step ~insert_frac:0.7
      in
      total := !total + List.length batch;
      let _, ta = time (fun () -> Inc_match.apply im batch) in
      let _, tb =
        time (fun () ->
            let c = Inc_bisim.apply inc batch in
            Compress_bisim.answer pattern c)
      in
      cum_a := !cum_a +. ta;
      cum_b := !cum_b +. tb;
      rows :=
        { delta_e = !total; incbmatch_s = !cum_a; incpcm_match_s = !cum_b }
        :: !rows
    done;
    List.rev !rows

  let print ppf rows =
    Format.fprintf ppf
      "Fig 12(h): cumulative incremental query time on Citation@.";
    Format.fprintf ppf "%10s | %16s %22s@." "|dE|" "IncBMatch on G"
      "incPCM+Match on Gr";
    List.iter
      (fun r ->
        Format.fprintf ppf "%10d | %16.4f %22.4f@." r.delta_e r.incbmatch_s
          r.incpcm_match_s)
      rows;
    Format.fprintf ppf
      "(paper: beyond ~8K updates, maintaining and querying Gr is cheaper)@."
  let csv rows =
    Csv.render ~header:[ "delta_e"; "incbmatch_s"; "incpcm_match_s" ]
      (List.map
         (fun r ->
           [ string_of_int r.delta_e; Csv.float r.incbmatch_s;
             Csv.float r.incpcm_match_s ])
         rows)

end

module Fig12ik = struct
  type row = { step : int; ratio_low_alpha : float; ratio_high_alpha : float }

  let ratio_of ~pattern g =
    if pattern then
      Compressed.ratio (Compress_bisim.compress g) ~original:g
    else Compressed.ratio (Compress_reach.compress g) ~original:g

  let run ?(opts = default_opts) ~pattern () =
    let v0 = max 64 (int_of_float (2000. *. opts.scale)) in
    let labels = if pattern then 10 else 1 in
    let series alpha =
      Evolve.densification ~seed:opts.seed ~alpha ~beta:1.2 ~v0 ~steps:8
        ~labels ()
      |> List.map (ratio_of ~pattern)
    in
    let low, high =
      match pmap series [ 1.05; 1.1 ] with
      | [ low; high ] -> (low, high)
      | _ -> assert false
    in
    List.mapi
      (fun i (l, h) -> { step = i; ratio_low_alpha = l; ratio_high_alpha = h })
      (List.combine low high)

  let print ppf ~pattern rows =
    Format.fprintf ppf
      "Fig 12(%s): %s across densification-law evolution (beta=1.2)@."
      (if pattern then "k" else "i")
      (if pattern then "PCr" else "RCr");
    Format.fprintf ppf "%6s | %12s %12s@." "step" "alpha=1.05" "alpha=1.10";
    List.iter
      (fun r ->
        Format.fprintf ppf "%6d | %11.3f%% %11.3f%%@." r.step
          (100. *. r.ratio_low_alpha)
          (100. *. r.ratio_high_alpha))
      rows;
    if pattern then
      Format.fprintf ppf "(paper: PCr barely moves as graphs densify)@."
    else
      Format.fprintf ppf
        "(paper: RCr falls as graphs densify - denser graphs compress better)@."
  let csv rows =
    Csv.render ~header:[ "step"; "ratio_alpha_1_05_pct"; "ratio_alpha_1_10_pct" ]
      (List.map
         (fun r ->
           [ string_of_int r.step; Csv.pct r.ratio_low_alpha;
             Csv.pct r.ratio_high_alpha ])
         rows)

end

module Ablation = struct
  type row = {
    name : string;
    quotient_edges : int;
    reduced_edges : int;
    optimised_s : float;
    per_node_bfs_s : float;
    dropped_updates_pct : float;
  }

  let datasets = [ "P2P"; "socEpinions"; "Internet"; "citHepTh" ]

  let run ?(opts = default_opts) () =
    (* Half scale: the per-node-BFS arm is quadratic. *)
    let opts = { opts with scale = 0.5 *. opts.scale } in
    List.map
      (fun name ->
        let g = scaled opts (Datasets.find name) in
        let c, optimised_s = time (fun () -> Compress_reach.compress g) in
        let _, per_node_bfs_s =
          time (fun () -> Compress_reach.compress_paper g)
        in
        (* Hypernode edges without the redundant-edge rule: distinct class
           pairs linked by a member edge. *)
        let { Reach_equiv.class_of; count; _ } = Reach_equiv.compute g in
        let quotient_edges =
          Digraph.m (Digraph.quotient ~self_loops:false ~class_of ~k:count g)
        in
        (* Update-reduction effectiveness on a random insertion batch. *)
        let rng = Random.State.make [| opts.seed; 4242 |] in
        let batch = Update_gen.insertions rng g ~count:200 in
        let inc = Inc_reach.of_compressed g c in
        ignore (Inc_reach.apply inc batch);
        let dropped_updates_pct =
          match Inc_reach.last_stats inc with
          | Some s when batch <> [] ->
              100.
              *. float_of_int s.Inc_reach.updates_dropped
              /. float_of_int (List.length batch)
          | Some _ | None -> 0.
        in
        {
          name;
          quotient_edges;
          reduced_edges = Digraph.m (Compressed.graph c);
          optimised_s;
          per_node_bfs_s;
          dropped_updates_pct;
        })
      datasets

  let print ppf rows =
    Format.fprintf ppf
      "Ablations: compressR design choices (half-scale datasets)@.";
    Format.fprintf ppf "%-12s | %10s %10s | %12s %14s | %10s@." "dataset"
      "|Er| full" "|Er| red." "bitsets(s)" "Fig5 BFS(s)" "dropped dE";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-12s | %10d %10d | %12.4f %14.4f | %9.1f%%@."
          r.name r.quotient_edges r.reduced_edges r.optimised_s
          r.per_node_bfs_s r.dropped_updates_pct)
      rows;
    Format.fprintf ppf
      "(the redundant-edge rule shrinks Er; the condensation/bitset path is@.";
    Format.fprintf ppf
      " orders of magnitude faster than the verbatim quadratic loop; most@.";
    Format.fprintf ppf
      " random insertions on well-connected graphs are redundant)@."
  let csv rows =
    Csv.render
      ~header:
        [ "dataset"; "quotient_edges"; "reduced_edges"; "optimised_s";
          "per_node_bfs_s"; "dropped_updates_pct" ]
      (List.map
         (fun r ->
           [ r.name; string_of_int r.quotient_edges;
             string_of_int r.reduced_edges; Csv.float r.optimised_s;
             Csv.float r.per_node_bfs_s; Csv.float r.dropped_updates_pct ])
         rows)

end

module Lifetime = struct
  type row = {
    round : int;
    delta_e_total : int;
    rc_r : float;
    inc_s_cum : float;
    batch_opt_s_cum : float;
    queries_ok : bool;
  }

  (* A deployment simulation: one compression maintained across a long
     stream of update batches with queries interleaved, tracking ratio
     drift and cumulative maintenance cost against recompress-every-batch. *)
  let run ?(opts = default_opts) () =
    let opts = { opts with scale = 0.5 *. opts.scale } in
    let g = scaled opts (Datasets.find "socEpinions") in
    let rng = Random.State.make [| opts.seed; 1414 |] in
    let inc = Inc_reach.create g in
    let step = max 1 (Digraph.m g / 100) in
    let inc_cum = ref 0.0 and batch_cum = ref 0.0 in
    let total = ref 0 in
    List.init 20 (fun i ->
        let batch =
          Update_gen.mixed rng (Inc_reach.graph inc) ~count:step
            ~insert_frac:0.6
        in
        total := !total + List.length batch;
        let c, dt = time (fun () -> Inc_reach.apply inc batch) in
        inc_cum := !inc_cum +. dt;
        let _, bt =
          time (fun () -> Compress_reach.compress (Inc_reach.graph inc))
        in
        batch_cum := !batch_cum +. bt;
        (* interleaved queries, verified against BFS on the live graph *)
        let live = Inc_reach.graph inc in
        let pairs = Reach_query.random_pairs rng live ~count:20 in
        let queries_ok =
          Array.for_all
            (fun (u, v) ->
              Compress_reach.answer c ~source:u ~target:v
              = Reach_query.eval Reach_query.Bfs live ~source:u ~target:v)
            pairs
        in
        {
          round = i + 1;
          delta_e_total = !total;
          rc_r = Compressed.ratio c ~original:live;
          inc_s_cum = !inc_cum;
          batch_opt_s_cum = !batch_cum;
          queries_ok;
        })

  let print ppf rows =
    Format.fprintf ppf
      "Lifetime: 20 rounds of 1%%|E| mixed churn on socEpinions, queries interleaved@.";
    Format.fprintf ppf "%6s %10s | %8s | %12s %16s | %s@." "round" "|dE|"
      "RCr" "incRCM cum(s)" "recompress cum(s)" "queries";
    List.iter
      (fun r ->
        Format.fprintf ppf "%6d %10d | %7.2f%% | %12.3f %16.3f | %s@." r.round
          r.delta_e_total (100. *. r.rc_r) r.inc_s_cum r.batch_opt_s_cum
          (if r.queries_ok then "all ok" else "WRONG"))
      rows;
    Format.fprintf ppf
      "(the maintained compression stays exact across the whole stream)@."

  let csv rows =
    Csv.render
      ~header:
        [ "round"; "delta_e_total"; "rc_r_pct"; "inc_s_cum";
          "batch_opt_s_cum"; "queries_ok" ]
      (List.map
         (fun r ->
           [ string_of_int r.round; string_of_int r.delta_e_total;
             Csv.pct r.rc_r; Csv.float r.inc_s_cum;
             Csv.float r.batch_opt_s_cum; string_of_bool r.queries_ok ])
         rows)
end

module Indexes = struct
  type row = {
    name : string;
    index : string;
    build_g_s : float;
    build_gr_s : float;
    mem_g_kb : float;
    mem_gr_kb : float;
    query_g_us : float;
    query_gr_us : float;
  }

  let datasets = [ "P2P"; "socEpinions"; "citHepTh" ]

  let run ?(opts = default_opts) () =
    List.concat_map
      (fun name ->
        let g = scaled opts (Datasets.find name) in
        let c = Compress_reach.compress g in
        let gr = Compressed.graph c in
        let rng = Random.State.make [| opts.seed; 808 |] in
        let pairs = Reach_query.random_pairs rng g ~count:200 in
        let gr_pairs =
          Array.map
            (fun (u, v) -> Compress_reach.rewrite c ~source:u ~target:v)
            pairs
        in
        let kb bytes = float_of_int bytes /. 1024. in
        let time_queries q pairs =
          let (), dt =
            time (fun () -> Array.iter (fun (u, v) -> ignore (q u v)) pairs)
          in
          1e6 *. dt /. float_of_int (Array.length pairs)
        in
        let make index build mem query =
          let t_g, build_g_s = time (fun () -> build g) in
          let t_gr, build_gr_s = time (fun () -> build gr) in
          {
            name;
            index;
            build_g_s;
            build_gr_s;
            mem_g_kb = kb (mem t_g);
            mem_gr_kb = kb (mem t_gr);
            query_g_us = time_queries (query t_g) pairs;
            query_gr_us = time_queries (query t_gr) gr_pairs;
          }
        in
        [
          make "2-hop" Two_hop.build Two_hop.memory_bytes (fun t u v ->
              Two_hop.query t u v);
          make "GRAIL" (Grail.build ?traversals:None ?seed:None)
            Grail.memory_bytes
            (fun t u v -> Grail.query t u v);
          make "tree-cover" Tree_cover.build Tree_cover.memory_bytes
            (fun t u v -> Tree_cover.query t u v);
        ])
      datasets

  let print ppf rows =
    Format.fprintf ppf
      "Reachability indexes over G vs Gr (beyond the paper: 2-hop is its Fig 12(d) index)@.";
    Format.fprintf ppf "%-12s %-10s | %10s %10s | %10s %10s | %10s %10s@."
      "dataset" "index" "build G(s)" "build Gr" "mem G(KB)" "mem Gr" "q G(us)"
      "q Gr(us)";
    List.iter
      (fun r ->
        Format.fprintf ppf
          "%-12s %-10s | %10.4f %10.4f | %10.1f %10.1f | %10.2f %10.2f@."
          r.name r.index r.build_g_s r.build_gr_s r.mem_g_kb r.mem_gr_kb
          r.query_g_us r.query_gr_us)
      rows;
    Format.fprintf ppf
      "(compression composes with indexing: same index family, tiny fraction of the cost)@."

  let csv rows =
    Csv.render
      ~header:
        [ "dataset"; "index"; "build_g_s"; "build_gr_s"; "mem_g_kb";
          "mem_gr_kb"; "query_g_us"; "query_gr_us" ]
      (List.map
         (fun r ->
           [ r.name; r.index; Csv.float r.build_g_s; Csv.float r.build_gr_s;
             Csv.float r.mem_g_kb; Csv.float r.mem_gr_kb;
             Csv.float r.query_g_us; Csv.float r.query_gr_us ])
         rows)
end

module Fig12jl = struct
  type row = { delta_pct : int; series : (string * float) list }

  let run ?(opts = default_opts) ~pattern () =
    let names =
      if pattern then [ "California"; "Internet-l"; "Youtube-l" ]
      else [ "P2P"; "wikiVote"; "citHepTh" ]
    in
    let per_dataset =
      pmap
        (fun name ->
          let g = scaled opts (Datasets.find name) in
          let graphs =
            Evolve.power_law_growth ~seed:opts.seed g ~steps:9 ~rate:0.05
              ~hub_bias:0.8
          in
          let ratios =
            List.map
              (fun g' ->
                if pattern then
                  Compressed.ratio (Compress_bisim.compress g') ~original:g'
                else
                  Compressed.ratio (Compress_reach.compress g') ~original:g')
              graphs
          in
          (name, ratios))
        names
    in
    let steps =
      match per_dataset with [] -> 0 | (_, rs) :: _ -> List.length rs
    in
    let per_dataset =
      List.map (fun (name, rs) -> (name, Array.of_list rs)) per_dataset
    in
    List.init steps (fun i ->
        {
          delta_pct = i * 5;
          series =
            List.map
              (fun (name, rs) ->
                if i >= Array.length rs then
                  failwith
                    (Printf.sprintf
                       "Experiments.fig12: dataset %s has %d evolution \
                        steps, expected %d"
                       name (Array.length rs) steps)
                else (name, rs.(i)))
              per_dataset;
        })

  let print ppf ~pattern rows =
    Format.fprintf ppf
      "Fig 12(%s): %s under power-law edge growth (5%% per step, 80%% hub bias)@."
      (if pattern then "l" else "j")
      (if pattern then "PCr" else "RCr");
    (match rows with
    | [] -> ()
    | first :: _ ->
        Format.fprintf ppf "%8s" "|dE|%";
        List.iter (fun (name, _) -> Format.fprintf ppf " %12s" name) first.series;
        Format.fprintf ppf "@.");
    List.iter
      (fun r ->
        Format.fprintf ppf "%7d%%" r.delta_pct;
        List.iter
          (fun (_, ratio) -> Format.fprintf ppf " %11.3f%%" (100. *. ratio))
          r.series;
        Format.fprintf ppf "@.")
      rows;
    if pattern then
      Format.fprintf ppf
        "(paper: PCr increases with insertions; web graphs more sensitive than social)@."
    else
      Format.fprintf ppf
        "(paper: RCr decreases - more edges means more reachability-equivalent nodes)@."
  let csv rows =
    let header =
      "delta_pct"
      :: (match rows with
         | [] -> []
         | first :: _ -> List.map (fun (n, _) -> n ^ "_pct") first.series)
    in
    Csv.render ~header
      (List.map
         (fun r ->
           string_of_int r.delta_pct
           :: List.map (fun (_, v) -> Csv.pct v) r.series)
         rows)

end
