type t = {
  pattern : Pattern.t;
  mutable graph : Digraph.t;
  mutable cache : Bounded_sim.cache;
  mutable cand : Bitset.t array; (* fixpoint sets; an empty set = no match *)
}

let create p g =
  let cache = Bounded_sim.make_cache g in
  let cand = Bounded_sim.label_candidates p g in
  ignore (Bounded_sim.refine ~cache p g ~cand);
  { pattern = p; graph = g; cache; cand }

let graph t = t.graph

let result_of_cand cand =
  if Array.length cand > 0 && Array.exists Bitset.is_empty cand then None
  else Some (Array.map Bitset.to_array cand)

let result t = result_of_cand t.cand

(* Nodes whose membership can change after inserting [sources]: closure of
   the sources under "has a bounded nonempty path to the set" (support chains
   step backwards along pattern edges). *)
let insertion_affected p g sources =
  let n = Digraph.n g in
  let affected = Bitset.create n in
  List.iter (Bitset.add affected) sources;
  if Pattern.has_unbounded p then begin
    List.iter
      (fun s ->
        Bitset.iter (Bitset.add affected) (Traversal.ancestors g s))
      sources;
    affected
  end
  else begin
    let step = Mono.imax 1 (Pattern.max_bound p) in
    let frontier = ref sources in
    while !frontier <> [] do
      let next = ref [] in
      (* Reverse BFS of depth [step] from the whole frontier. *)
      let depth = Array.make n (-1) in
      let q = Queue.create () in
      List.iter
        (fun s ->
          depth.(s) <- 0;
          Queue.add s q)
        !frontier;
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        if depth.(x) < step then
          Digraph.iter_pred g x (fun y ->
              if depth.(y) < 0 then begin
                depth.(y) <- depth.(x) + 1;
                if not (Bitset.mem affected y) then begin
                  Bitset.add affected y;
                  next := y :: !next
                end;
                Queue.add y q
              end)
      done;
      frontier := !next
    done;
    affected
  end

let apply t updates =
  let updates = Edge_update.normalize updates in
  let deletions =
    List.filter_map
      (function
        | Edge_update.Delete (u, v) when Digraph.mem_edge t.graph u v ->
            Some (u, v)
        | Edge_update.Delete _ | Edge_update.Insert _ -> None)
      updates
  in
  let g_after_del = Digraph.remove_edges t.graph deletions in
  let insertions =
    List.filter_map
      (function
        | Edge_update.Insert (u, v) when not (Digraph.mem_edge g_after_del u v)
          ->
            Some (u, v)
        | Edge_update.Insert _ | Edge_update.Delete _ -> None)
      updates
  in
  if deletions <> [] then begin
    t.graph <- g_after_del;
    t.cache <- Bounded_sim.make_cache t.graph;
    (* Previous match over-approximates the post-deletion match. *)
    ignore (Bounded_sim.refine ~cache:t.cache t.pattern t.graph ~cand:t.cand)
  end;
  if insertions <> [] then begin
    t.graph <- Digraph.add_edges t.graph insertions;
    t.cache <- Bounded_sim.make_cache t.graph;
    let affected =
      insertion_affected t.pattern t.graph (List.map fst insertions)
    in
    (* Re-admit affected label-compatible nodes, then cut back down. *)
    Array.iteri
      (fun u cu ->
        Bitset.iter
          (fun v ->
            if Pattern.label t.pattern u = Digraph.label t.graph v then
              Bitset.add cu v)
          affected)
      t.cand;
    ignore (Bounded_sim.refine ~cache:t.cache t.pattern t.graph ~cand:t.cand)
  end;
  result t
