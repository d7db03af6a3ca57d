(* Descendant sets at SCC granularity, then expanded to nodes.  Ascending SCC
   id is reverse topological order (see Scc), so one sequential pass
   suffices; the parallel path schedules by topological level instead —
   every SCC's successors sit at strictly smaller levels, so all SCCs of one
   level propagate independently.  Either way each set's content is a pure
   function of the graph, so the two schedules agree bit for bit. *)

let get_pool = function Some p -> p | None -> Pool.default ()

let scc_descendant_sets ~pool g scc =
  let cond = Scc.condensation g scc in
  let k = scc.Scc.count in
  let sets = Array.init k (fun _ -> Bitset.create k) in
  let fill c =
    let s = sets.(c) in
    Digraph.iter_succ cond c (fun c' ->
        Bitset.add s c';
        ignore (Bitset.union_into ~into:s sets.(c')));
    if scc.Scc.nontrivial.(c) then Bitset.add s c
  in
  if Pool.domains pool = 1 then
    for c = 0 to k - 1 do
      fill c
    done
  else begin
    let buckets =
      Obs.span "transitive.topo_rank" (fun () ->
          let level = Array.make k 0 in
          let max_level = ref 0 in
          for c = 0 to k - 1 do
            let l = ref 0 in
            Digraph.iter_succ cond c (fun c' ->
                if level.(c') >= !l then l := level.(c') + 1);
            level.(c) <- !l;
            if !l > !max_level then max_level := !l
          done;
          let counts = Array.make (!max_level + 1) 0 in
          Array.iter (fun l -> counts.(l) <- counts.(l) + 1) level;
          let buckets = Array.map (fun cnt -> Array.make cnt 0) counts in
          let fill_pos = Array.make (!max_level + 1) 0 in
          for c = 0 to k - 1 do
            let l = level.(c) in
            buckets.(l).(fill_pos.(l)) <- c;
            fill_pos.(l) <- fill_pos.(l) + 1
          done;
          buckets)
    in
    Array.iter
      (fun bucket ->
        Pool.parallel_for pool ~n:(Array.length bucket) (fun i ->
            fill bucket.(i)))
      buckets
  end;
  (cond, sets)

let descendant_sets ?pool g =
  let pool = get_pool pool in
  let scc = Scc.compute g in
  let _, scc_sets = scc_descendant_sets ~pool g scc in
  let n = Digraph.n g in
  let res = Array.make n (Bitset.create 0) in
  Pool.parallel_for pool ~n (fun v ->
      let s = Bitset.create n in
      Bitset.iter
        (fun c -> Array.iter (Bitset.add s) scc.Scc.members.(c))
        scc_sets.(scc.Scc.comp.(v));
      res.(v) <- s);
  res

let reduction_dag ?pool dag =
  let pool = get_pool pool in
  let scc = Scc.compute dag in
  let n = Digraph.n dag in
  if scc.Scc.count <> n || Array.exists (fun b -> b) scc.Scc.nontrivial
  then invalid_arg "Transitive.reduction_dag: graph has a cycle";
  (* Acyclic, so SCC [comp.(v)] is {v}: the SCC-level descendant sets are
     the node-level ones under the renaming [comp]. *)
  let _, desc = scc_descendant_sets ~pool dag scc in
  let comp = scc.Scc.comp in
  (* Cover rule: (u,v) is redundant iff another successor of u reaches v,
     and such a successor has a larger SCC id than v.  Visiting u's
     successors by descending SCC id, a successor is redundant iff it is
     already in the union of the descendant sets of the successors kept so
     far (a redundant successor's set lies inside a kept one's), so one
     [covered] set decides every edge of u in O(deg·n/63).  Each node's
     kept edges are a pure function of the graph, so the result does not
     depend on scheduling (Digraph.make sorts and dedups anyway). *)
  let keep = Array.make n [] in
  Pool.parallel_for_ranges pool ~n (fun lo hi ->
      let covered = Bitset.create n in
      for u = lo to hi - 1 do
        let base, start, len = Digraph.succ_slice dag u in
        if len = 1 then keep.(u) <- [ (u, base.{start}) ]
        else if len > 1 then begin
          let succ = Array.init len (fun i -> base.{start + i}) in
          Array.sort (fun a b -> Mono.icompare comp.(b) comp.(a)) succ;
          Bitset.clear covered;
          keep.(u) <-
            Array.fold_left
              (fun acc v ->
                let c = comp.(v) in
                if Bitset.mem covered c then acc
                else begin
                  ignore (Bitset.union_into ~into:covered desc.(c));
                  (u, v) :: acc
                end)
              [] succ
        end
      done);
  let edges = ref [] in
  for u = n - 1 downto 0 do
    edges := List.rev_append keep.(u) !edges
  done;
  Digraph.make ~n ~labels:(Digraph.labels dag) !edges

let aho_reduction ?pool g =
  let scc = Scc.compute g in
  let cond = Scc.condensation g scc in
  let cond_reduced = reduction_dag ?pool cond in
  let edges = ref [] in
  (* Simple cycle through each nontrivial SCC. *)
  for c = 0 to scc.Scc.count - 1 do
    let ms = scc.Scc.members.(c) in
    let len = Array.length ms in
    if scc.Scc.nontrivial.(c) then
      if len = 1 then edges := (ms.(0), ms.(0)) :: !edges
      else
        for i = 0 to len - 1 do
          edges := (ms.(i), ms.((i + 1) mod len)) :: !edges
        done
  done;
  (* One representative edge per reduced condensation edge. *)
  Digraph.iter_edges cond_reduced (fun a b ->
      edges := (scc.Scc.members.(a).(0), scc.Scc.members.(b).(0)) :: !edges);
  Digraph.make ~n:(Digraph.n g) ~labels:(Digraph.labels g) !edges

let closure_matrix ?pool g =
  let desc = descendant_sets ?pool g in
  fun u v -> Bitset.mem desc.(u) v
