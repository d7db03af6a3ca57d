let compress_of_partition g assignment =
  let n = Digraph.n g in
  if Array.length assignment <> n then
    invalid_arg "Compress_bisim: assignment length mismatch";
  if n = 0 then Compressed.v ~graph:Digraph.empty ~node_map:[||]
  else begin
    let assignment = Partition.normalize_assignment assignment in
    let k = Array.fold_left (fun acc b -> Mono.imax acc (b + 1)) 0 assignment in
    let labels = Array.make k 0 in
    Array.iteri (fun v b -> labels.(b) <- Digraph.label g v) assignment;
    let seen = Mono.Ptbl.create 1024 in
    let edges = ref [] in
    Digraph.iter_edges g (fun u v ->
        let e = (assignment.(u), assignment.(v)) in
        if not (Mono.Ptbl.mem seen e) then begin
          Mono.Ptbl.replace seen e ();
          edges := e :: !edges
        end);
    let graph = Digraph.make ~n:k ~labels !edges in
    Compressed.v ~graph ~node_map:assignment
  end

let compress ?pool g =
  Obs.span "compressB" (fun () ->
      let part =
        Obs.span "compressB.partition" (fun () ->
            Bisimulation.max_bisimulation ?pool g)
      in
      Obs.span "compressB.quotient" (fun () -> compress_of_partition g part))

let answer ?cache p c =
  Compressed.expand_result c
    (Bounded_sim.eval ?cache p (Compressed.graph c))

let answer_boolean ?cache p c =
  Bounded_sim.eval_boolean ?cache p (Compressed.graph c)

let answer_regular p c =
  Compressed.expand_result c
    (Regular_pattern.eval p (Compressed.graph c))

let answer_rpq r c =
  Compressed.expand_nodes c
    (Bitset.to_array (Rpq.matches r (Compressed.graph c)))
