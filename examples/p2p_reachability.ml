(* Reachability querying over a peer-to-peer overlay, the paper's headline
   use case (Fig 1): compress once, then answer every reachability query on
   the 20x smaller graph with unmodified BFS — and build indexes like 2-hop
   over Gr instead of G.

   Run with:  dune exec examples/p2p_reachability.exe *)

let time = Obs.time

let () =
  let spec = Datasets.find "P2P" in
  let g = Datasets.generate spec in
  Printf.printf "P2P overlay stand-in: |V| = %d, |E| = %d\n" (Digraph.n g)
    (Digraph.m g);

  let c, build_s = time (fun () -> Compress_reach.compress g) in
  let gr = Compressed.graph c in
  Printf.printf
    "compressed in %.3fs: |Vr| = %d, |Er| = %d  (|Gr|/|G| = %.1f%%)\n" build_s
    (Digraph.n gr) (Digraph.m gr)
    (100. *. Compressed.ratio c ~original:g);

  (* Random reachability workload, original vs compressed. *)
  let rng = Random.State.make [| 2026 |] in
  let pairs = Reach_query.random_pairs rng g ~count:500 in
  let answers_g, t_g =
    time (fun () ->
        Array.map
          (fun (u, v) -> Reach_query.eval Reach_query.Bfs g ~source:u ~target:v)
          pairs)
  in
  let answers_gr, t_gr =
    time (fun () ->
        Array.map (fun (u, v) -> Compress_reach.answer c ~source:u ~target:v) pairs)
  in
  assert (answers_g = answers_gr);
  Printf.printf
    "500 BFS queries:  on G %.3fs   on Gr %.3fs   (%.1f%% of the original cost)\n"
    t_g t_gr
    (100. *. t_gr /. t_g);

  (* Index composition: 2-hop labels over Gr are far smaller than over G. *)
  let th_g, t_build_g = time (fun () -> Two_hop.build g) in
  let th_gr, t_build_gr = time (fun () -> Two_hop.build gr) in
  Printf.printf
    "2-hop index:  on G %d entries (%.3fs)   on Gr %d entries (%.3fs)\n"
    (Two_hop.entry_count th_g) t_build_g (Two_hop.entry_count th_gr)
    t_build_gr;

  (* The 2-hop index over Gr still answers original queries through the
     same O(1) rewriting. *)
  let ok = ref true in
  Array.iteri
    (fun i (u, v) ->
      let s, t = Compress_reach.rewrite c ~source:u ~target:v in
      let via_index = u = v || (s <> t && Two_hop.query th_gr s t)
                      || (s = t && Digraph.mem_edge gr s s) in
      if via_index <> answers_g.(i) then ok := false)
    pairs;
  Printf.printf "2-hop-on-Gr answers all 500 original queries correctly: %b\n"
    !ok;
  if not !ok then exit 1
