(* Incremental maintenance on an evolving social network (paper Sec 5):
   compress once, then absorb batches of edge churn with incRCM / incPCM
   instead of recompressing, while queries keep being answered on the
   maintained Gr.

   Run with:  dune exec examples/social_updates.exe *)

let time = Obs.time

let () =
  let spec = Datasets.find "socEpinions" in
  let g =
    Datasets.generate_scaled spec ~nodes:(spec.Datasets.nodes / 2)
      ~edges:(spec.Datasets.edges / 2)
  in
  Printf.printf "social network stand-in: |V| = %d, |E| = %d\n" (Digraph.n g)
    (Digraph.m g);

  let inc = Inc_reach.create g in
  Printf.printf "initial Gr: %d hypernodes (%.1f%% of |G|)\n\n"
    (Digraph.n (Compressed.graph (Inc_reach.compressed inc)))
    (100. *. Compressed.ratio (Inc_reach.compressed inc) ~original:g);

  let rng = Random.State.make [| 99 |] in
  Printf.printf "%-6s %10s %12s %16s %10s %8s\n" "batch" "updates"
    "incRCM (s)" "batch Fig5 (s)" "dropped" "|AFF|";
  for batch = 1 to 5 do
    let updates =
      Update_gen.mixed rng (Inc_reach.graph inc) ~count:150 ~insert_frac:0.6
    in
    let _, inc_s = time (fun () -> Inc_reach.apply inc updates) in
    (* what recompressing with the paper's quadratic algorithm would cost *)
    let _, batch_s =
      time (fun () -> Compress_reach.compress_paper (Inc_reach.graph inc))
    in
    match Inc_reach.last_stats inc with
    | Some s ->
        Printf.printf "%-6d %10d %12.4f %16.3f %10d %8d\n" batch
          (List.length updates) inc_s batch_s s.Inc_reach.updates_dropped
          s.Inc_reach.affected_members
    | None -> ()
  done;

  (* the maintained compression still answers queries exactly *)
  let g_now = Inc_reach.graph inc in
  let c_now = Inc_reach.compressed inc in
  let pairs = Reach_query.random_pairs rng g_now ~count:200 in
  let ok =
    Array.for_all
      (fun (u, v) ->
        Compress_reach.answer c_now ~source:u ~target:v
        = Reach_query.eval Reach_query.Bfs g_now ~source:u ~target:v)
      pairs
  in
  Printf.printf "\nmaintained Gr answers 200 random queries correctly: %b\n" ok;
  if not ok then exit 1;

  (* the pattern-preserving compression is maintained the same way *)
  let gi =
    Datasets.generate_scaled (Datasets.find "Citation") ~nodes:2000 ~edges:3000
  in
  let incb = Inc_bisim.create gi in
  let p =
    Pattern_gen.anchored (Random.State.make [| 7 |]) gi ~nodes:3 ~edges:3
      ~max_bound:2
  in
  let before = Pattern.result_size (Compress_bisim.answer p (Inc_bisim.compressed incb)) in
  let churn = Update_gen.mixed rng gi ~count:60 ~insert_frac:0.5 in
  let fresh = Inc_bisim.apply incb churn in
  let after = Pattern.result_size (Compress_bisim.answer p fresh) in
  Printf.printf
    "citation graph: pattern answer size %d -> %d after %d updates (incPCM-maintained)\n"
    before after (List.length churn);
  assert (
    Pattern.result_equal (Compress_bisim.answer p fresh)
      (Bounded_sim.eval p (Inc_bisim.graph incb)));
  print_endline "(checked: identical to evaluating on the updated original graph)"
