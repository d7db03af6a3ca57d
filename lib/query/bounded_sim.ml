type cache = {
  graph : Digraph.t;
  (* bound -> per-node descendant bitsets; key -1 stands for [*]. *)
  by_bound : Bitset.t array Mono.Itbl.t;
}

let make_cache g = { graph = g; by_bound = Mono.Itbl.create 4 }

let descendants_for cache key =
  match Mono.Itbl.find_opt cache.by_bound key with
  | Some sets -> sets
  | None ->
      let g = cache.graph in
      let sets =
        if key = -1 then Transitive.descendant_sets g
        else
          Array.init (Digraph.n g) (fun v -> Traversal.bounded_descendants g v key)
      in
      Mono.Itbl.replace cache.by_bound key sets;
      sets

let check_cache g = function
  | Some c ->
      if c.graph != g then
        invalid_arg "Bounded_sim: cache built on a different graph";
      c
  | None -> make_cache g

(* Some slot of [adj] in [i, stop) is a member of [set]: stops at the
   first hit. *)
let rec slice_meets set adj i stop =
  i < stop && (Bitset.mem set adj.(i) || slice_meets set adj (i + 1) stop)

(* Kahn's algorithm: the pattern nodes with every parent before its
   children, or [None] when the pattern has a cycle (a self-loop is one). *)
let topo_order p =
  let np = Pattern.node_count p in
  let indeg = Array.make np 0 in
  List.iter (fun (_, u', _) -> indeg.(u') <- indeg.(u') + 1) (Pattern.edges p);
  let order = Array.make np 0 and tail = ref 0 in
  let push u =
    order.(!tail) <- u;
    incr tail
  in
  for u = 0 to np - 1 do
    if indeg.(u) = 0 then push u
  done;
  let head = ref 0 in
  while !head < !tail do
    List.iter
      (fun (u', _) ->
        indeg.(u') <- indeg.(u') - 1;
        if indeg.(u') = 0 then push u')
      (Pattern.out_edges p order.(!head));
    incr head
  done;
  if !tail = np then Some order else None

let refine ?cache p g ~cand =
  let cache = check_cache g cache in
  let np = Pattern.node_count p in
  if Array.length cand <> np then
    invalid_arg "Bounded_sim.refine: candidate array length mismatch";
  if np = 0 then Some [||]
  else begin
    (* witness v b u' : some node within reach of v under b lies in cand(u'). *)
    let witness v b u' =
      match b with
      | Pattern.Bounded 1 ->
          let adj, start, len = Digraph.succ_slice g v in
          slice_meets cand.(u') adj start (start + len)
      | Pattern.Bounded k ->
          not (Bitset.disjoint (descendants_for cache k).(v) cand.(u'))
      | Pattern.Unbounded ->
          not (Bitset.disjoint (descendants_for cache (-1)).(v) cand.(u'))
    in
    (* Drop from cand(u) every node lacking a witness for some out-edge of
       u, one edge at a time; [true] iff something was dropped.  Removing
       the node [Bitset.iter] is visiting is safe. *)
    let prune u =
      let cu = cand.(u) and changed = ref false in
      List.iter
        (fun (u', b) ->
          Bitset.iter
            (fun v ->
              if not (witness v b u') then begin
                Bitset.remove cu v;
                changed := true
              end)
            cu)
        (Pattern.out_edges p u);
      !changed
    in
    (match topo_order p with
    | Some order ->
        (* Children before parents: when u is pruned its children's sets
           are already final, and pruning u only affects u's parents, so
           this single pass is the greatest fixpoint for every bound. *)
        for i = np - 1 downto 0 do
          ignore (prune order.(i) : bool)
        done
    | None ->
        let changed = ref true in
        while !changed do
          changed := false;
          for u = 0 to np - 1 do
            if prune u then changed := true
          done
        done);
    if Array.exists Bitset.is_empty cand then None
    else Some (Array.map Bitset.to_array cand)
  end

let label_candidates p g =
  let n = Digraph.n g in
  Array.init (Pattern.node_count p) (fun u ->
      let c = Bitset.create n in
      let ids, start, len = Digraph.label_slice g (Pattern.label p u) in
      Bitset.add_slice c ids start len;
      c)

let eval ?cache p g = refine ?cache p g ~cand:(label_candidates p g)

(* The cubic formulation: materialise nonempty-path shortest distances with
   one BFS per source, then run the same greatest-fixpoint removal with
   constant-time distance lookups. *)
let eval_matrix p g =
  let np = Pattern.node_count p and n = Digraph.n g in
  if np = 0 then Some [||]
  else begin
    let dist = Array.make_matrix (Mono.imax 1 n) (Mono.imax 1 n) max_int in
    for s = 0 to n - 1 do
      (* nonempty-path distances: seed with successors at distance 1 *)
      let row = dist.(s) in
      let q = Queue.create () in
      Digraph.iter_succ g s (fun w ->
          if row.(w) = max_int then begin
            row.(w) <- 1;
            Queue.add w q
          end);
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        Digraph.iter_succ g x (fun w ->
            if row.(w) = max_int then begin
              row.(w) <- row.(x) + 1;
              Queue.add w q
            end)
      done
    done;
    (* A plain scan, so the oracle does not go through the label index. *)
    let cand = Array.init np (fun _ -> Bitset.create n) in
    for v = 0 to n - 1 do
      for u = 0 to np - 1 do
        if Pattern.label p u = Digraph.label g v then Bitset.add cand.(u) v
      done
    done;
    let within v v' = function
      | Pattern.Bounded k -> dist.(v).(v') <= k
      | Pattern.Unbounded -> dist.(v).(v') < max_int
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to np - 1 do
        let outs = Pattern.out_edges p u in
        if outs <> [] then begin
          let to_remove = ref [] in
          Bitset.iter
            (fun v ->
              let supported =
                List.for_all
                  (fun (u', b) ->
                    Bitset.fold
                      (fun v' acc -> acc || within v v' b)
                      cand.(u') false)
                  outs
              in
              if not supported then to_remove := v :: !to_remove)
            cand.(u);
          if !to_remove <> [] then begin
            changed := true;
            List.iter (Bitset.remove cand.(u)) !to_remove
          end
        end
      done
    done;
    if Array.exists Bitset.is_empty cand then None
    else Some (Array.map Bitset.to_array cand)
  end

let eval_boolean ?cache p g =
  match eval ?cache p g with Some _ -> true | None -> false
