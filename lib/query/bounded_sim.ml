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

(* A bound k or [*] edge (u, u'): cand(u) keeps the nodes whose
   memoised set [sets.(v)] meets cand(u').  The walk passes this record
   and a toplevel function to [Bitset.iter_with], so it builds nothing
   per candidate. *)
type far = {
  sets : Bitset.t array;
  cu : Bitset.t;
  cu' : Bitset.t;
  mutable dropped : bool;
}

let keep_far e v =
  if Bitset.disjoint e.sets.(v) e.cu' then begin
    Bitset.remove e.cu v;
    e.dropped <- true
  end

let[@lint.hot_loop] prune_far e = Bitset.iter_with keep_far e e.cu

(* Drop from [cu] the candidates without a witness in [cu'] along one
   pattern edge: a successor for bound 1, a member of its memoised set
   (looked up once per edge) for a bound k or [*].  [true] iff something
   was dropped. *)
let prune_edge cache g cu cu' = function
  | Pattern.Bounded 1 -> Digraph.keep_with_succ_in g cu cu'
  | b ->
      let key = match b with Pattern.Bounded k -> k | Pattern.Unbounded -> -1 in
      let e = { sets = descendants_for cache key; cu; cu'; dropped = false } in
      prune_far e;
      e.dropped

let rec prune_edges cache g cand cu edges dropped =
  match edges with
  | [] -> dropped
  | (u', b) :: rest ->
      let d = prune_edge cache g cu cand.(u') b in
      prune_edges cache g cand cu rest (d || dropped)

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

(* The removal fixpoint on [cand.(0 .. np - 1)] in place, where [cand]
   may be longer than the pattern; [true] iff every pattern node keeps a
   candidate.  The one kernel under [refine], [eval] and [match_into]. *)
let fixpoint ?cache p g cand =
  let cache = check_cache g cache in
  let np = Pattern.node_count p in
  (* Drop from cand(u) every node lacking a witness for some out-edge of
     u; [true] iff something was dropped. *)
  let prune u =
    prune_edges cache g cand cand.(u) (Pattern.out_edges p u) false
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
  let rec all_kept u =
    u >= np || ((not (Bitset.is_empty cand.(u))) && all_kept (u + 1))
  in
  all_kept 0

let refine ?cache p g ~cand =
  if Array.length cand <> Pattern.node_count p then
    invalid_arg "Bounded_sim.refine: candidate array length mismatch";
  if fixpoint ?cache p g cand then Some (Array.map Bitset.to_array cand)
  else None

(* Reset [cand.(u)] to the nodes labelled [fv(u)], for each pattern node. *)
let fill_labels p g cand =
  for u = 0 to Pattern.node_count p - 1 do
    let c = cand.(u) in
    Bitset.clear c;
    let ids, start, len = Digraph.label_slice g (Pattern.label p u) in
    Bitset.add_slice c ids start len
  done

let label_candidates p g =
  let cand =
    Array.init (Pattern.node_count p) (fun _ -> Bitset.create (Digraph.n g))
  in
  fill_labels p g cand;
  cand

let eval ?cache p g = refine ?cache p g ~cand:(label_candidates p g)

type scratch = { on : Digraph.t; mutable sets : Bitset.t array }

let scratch g = { on = g; sets = [||] }

let match_into ?cache s p =
  let np = Pattern.node_count p and have = Array.length s.sets in
  if have < np then
    s.sets <-
      Array.init np (fun u ->
          if u < have then s.sets.(u) else Bitset.create (Digraph.n s.on));
  fill_labels p s.on s.sets;
  fixpoint ?cache p s.on s.sets

let matched s u = s.sets.(u)

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
