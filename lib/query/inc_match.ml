type t = {
  pattern : Pattern.t;
  mutable graph : Digraph.t;
  mutable cand : Bitset.t array; (* fixpoint sets; an empty set = no match *)
}

let create p g =
  let cand = Bounded_sim.label_candidates p g in
  ignore (Bounded_sim.refine p g ~cand);
  { pattern = p; graph = g; cand }

let graph t = t.graph

let result_of_cand cand =
  if Array.length cand > 0 && Array.exists Bitset.is_empty cand then None
  else Some (Array.map Bitset.to_array cand)

let result t = result_of_cand t.cand

(* Nodes whose membership can change after inserting edges out of
   [sources]: the sources and every node with a path into one, since a
   support chain that gains a witness crosses an inserted edge (support
   chains step backwards along pattern edges).  Whatever the bounds,
   this closure is one unbounded backward search. *)
let insertion_affected g sources =
  let n = Digraph.n g in
  let sources = Bitset.of_list n sources and affected = Bitset.create n in
  Traversal.ancestors g (Traversal.queue n) sources ~into:affected;
  ignore (Bitset.union_into ~into:affected sources : bool);
  affected

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
    (* Previous match over-approximates the post-deletion match. *)
    ignore (Bounded_sim.refine t.pattern t.graph ~cand:t.cand)
  end;
  if insertions <> [] then begin
    t.graph <- Digraph.add_edges t.graph insertions;
    let affected = insertion_affected t.graph (List.map fst insertions) in
    (* Re-admit affected label-compatible nodes, then cut back down. *)
    Array.iteri
      (fun u cu ->
        Bitset.iter
          (fun v ->
            if Pattern.label t.pattern u = Digraph.label t.graph v then
              Bitset.add cu v)
          affected)
      t.cand;
    ignore (Bounded_sim.refine t.pattern t.graph ~cand:t.cand)
  end;
  result t
