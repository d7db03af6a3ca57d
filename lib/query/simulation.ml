let eval p g =
  if not (Pattern.all_bounds_one p) then
    invalid_arg "Simulation.eval: pattern has a bound other than 1";
  let np = Pattern.node_count p and n = Digraph.n g in
  if np = 0 then Some [||]
  else begin
    let cand = Array.init np (fun _ -> Bitset.create n) in
    for v = 0 to n - 1 do
      for u = 0 to np - 1 do
        if Pattern.label p u = Digraph.label g v then Bitset.add cand.(u) v
      done
    done;
    (* counters.(edge index) maps v to |succ(v) ∩ cand(u')|. *)
    let pattern_edges =
      Pattern.edges p |> List.map (fun (u, u', _) -> (u, u'))
    in
    let edge_array = Array.of_list pattern_edges in
    let counters =
      Array.map
        (fun (_, u') ->
          Array.init n (fun v ->
              Digraph.fold_succ g v
                (fun acc w -> if Bitset.mem cand.(u') w then acc + 1 else acc)
                0))
        edge_array
    in
    (* Edges grouped by source pattern node for the initial sweep, and by
       target pattern node for cascading. *)
    let out_idx = Array.make np [] and in_idx = Array.make np [] in
    Array.iteri
      (fun i (u, u') ->
        out_idx.(u) <- i :: out_idx.(u);
        in_idx.(u') <- i :: in_idx.(u'))
      edge_array;
    let queue = Queue.create () in
    let remove u v =
      if Bitset.mem cand.(u) v then begin
        Bitset.remove cand.(u) v;
        Queue.add (u, v) queue
      end
    in
    (* Initial sweep: drop candidates with a zero counter on some out-edge. *)
    for u = 0 to np - 1 do
      List.iter
        (fun i ->
          Bitset.iter
            (fun v -> if counters.(i).(v) = 0 then remove u v)
            cand.(u))
        out_idx.(u)
    done;
    (* Cascade: v' left cand(u'); predecessors of v' lose a witness on every
       edge into u'. *)
    while not (Queue.is_empty queue) do
      let u', v' = Queue.pop queue in
      List.iter
        (fun i ->
          let u, _ = edge_array.(i) in
          Digraph.iter_pred g v' (fun v ->
              counters.(i).(v) <- counters.(i).(v) - 1;
              if counters.(i).(v) = 0 then remove u v))
        in_idx.(u')
    done;
    if Array.exists Bitset.is_empty cand then None
    else Some (Array.map Bitset.to_array cand)
  end
