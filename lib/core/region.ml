type t = {
  h : Digraph.t;
  class_to_h : int array;
  member_to_h : (int * int) array;
  member_h : int Mono.Itbl.t;
  h_origin : [ `Class of int | `Member of int ] array;
}

let closure gr seeds ~forward =
  let visited = Bitset.create (Digraph.n gr) in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if not (Bitset.mem visited s) then begin
        Bitset.add visited s;
        Queue.add s q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let c = Queue.pop q in
    let expand c' =
      if not (Bitset.mem visited c') then begin
        Bitset.add visited c';
        Queue.add c' q
      end
    in
    if forward then Digraph.iter_succ gr c expand
    else Digraph.iter_pred gr c expand
  done;
  visited

let build ~new_graph ~old ~affected ~use_labels () =
  let gr = Compressed.graph old in
  let k = Digraph.n gr in
  (* Affected members, in ascending class then node order. *)
  let a_members = ref [] in
  for c = k - 1 downto 0 do
    if Bitset.mem affected c then
      Compressed.iter_members old c (fun v -> a_members := v :: !a_members)
  done;
  let a_members = Array.of_list !a_members in
  let n_aff = Array.length a_members in
  let in_a = Bitset.create (Mono.imax 1 (Digraph.n new_graph)) in
  Array.iter (Bitset.add in_a) a_members;
  (* H node numbering: frozen classes first (compacted), then members. *)
  let class_to_h = Array.make k (-1) in
  let frozen = ref 0 in
  for c = 0 to k - 1 do
    if not (Bitset.mem affected c) then begin
      class_to_h.(c) <- !frozen;
      incr frozen
    end
  done;
  let n_frozen = !frozen in
  let member_h = Mono.Itbl.create (2 * n_aff + 1) in
  Array.iteri
    (fun i v -> Mono.Itbl.replace member_h v (n_frozen + i))
    a_members;
  let nh = n_frozen + n_aff in
  let h_origin =
    Array.init nh (fun h ->
        if h < n_frozen then `Class (-1) (* fixed below *)
        else `Member a_members.(h - n_frozen))
  in
  for c = 0 to k - 1 do
    if class_to_h.(c) >= 0 then h_origin.(class_to_h.(c)) <- `Class c
  done;
  let labels =
    if not use_labels then Array.make (Mono.imax 1 nh) 0
    else
      Array.init nh (fun h ->
          match h_origin.(h) with
          | `Class c -> Digraph.label gr c
          | `Member v -> Digraph.label new_graph v)
  in
  let labels = if nh = 0 then [||] else Array.sub labels 0 nh in
  let edges = ref [] in
  (* Frozen-to-frozen edges come from the old compressed graph. *)
  Digraph.iter_edges gr (fun c c' ->
      if class_to_h.(c) >= 0 && class_to_h.(c') >= 0 then
        edges := (class_to_h.(c), class_to_h.(c')) :: !edges);
  (* Edges touching affected members come from their real adjacency. *)
  let node_map = Compressed.hypernode old in
  Array.iteri
    (fun i v ->
      let hv = n_frozen + i in
      Digraph.iter_succ new_graph v (fun w ->
          let hw =
            if Bitset.mem in_a w then Mono.Itbl.find member_h w
            else class_to_h.(node_map w)
          in
          edges := (hv, hw) :: !edges);
      Digraph.iter_pred new_graph v (fun p ->
          if not (Bitset.mem in_a p) then
            edges := (class_to_h.(node_map p), hv) :: !edges))
    a_members;
  let h = Digraph.make ~n:nh ~labels !edges in
  let member_to_h =
    Array.mapi (fun i v -> (v, n_frozen + i)) a_members
  in
  { h; class_to_h; member_to_h; member_h; h_origin }

let build_endpoints ~new_graph ~old ~endpoints =
  let gr = Compressed.graph old in
  let k = Digraph.n gr in
  let endpoints = List.sort_uniq Mono.icompare endpoints in
  let ep_count = List.length endpoints in
  let is_endpoint = Bitset.create (Mono.imax 1 (Digraph.n new_graph)) in
  List.iter (Bitset.add is_endpoint) endpoints;
  (* Endpoints per class, to decide which classes keep a remainder node. *)
  let eps_in_class = Array.make k 0 in
  List.iter
    (fun u ->
      let c = Compressed.hypernode old u in
      eps_in_class.(c) <- eps_in_class.(c) + 1)
    endpoints;
  (* H numbering: class representatives first (frozen classes and nonempty
     remainders), then endpoint singletons. *)
  let class_to_h = Array.make k (-1) in
  let reps = ref 0 in
  for c = 0 to k - 1 do
    let _, _, size = Compressed.member_slice old c in
    if size > eps_in_class.(c) then begin
      class_to_h.(c) <- !reps;
      incr reps
    end
  done;
  let n_reps = !reps in
  let nh = n_reps + ep_count in
  let member_h = Mono.Itbl.create (2 * ep_count + 1) in
  List.iteri (fun i u -> Mono.Itbl.replace member_h u (n_reps + i)) endpoints;
  let h_origin =
    Array.make (Mono.imax 1 nh) (`Class (-1))
  in
  for c = 0 to k - 1 do
    if class_to_h.(c) >= 0 then h_origin.(class_to_h.(c)) <- `Class c
  done;
  List.iteri (fun i u -> h_origin.(n_reps + i) <- `Member u) endpoints;
  let singletons_of = Array.make k [] in
  List.iter
    (fun u ->
      let c = Compressed.hypernode old u in
      singletons_of.(c) <- Mono.Itbl.find member_h u :: singletons_of.(c))
    endpoints;
  let edges = ref [] in
  (* Old class-level reachability: each Gr edge (c1,c2) asserts that every
     member of c1 reaches every member of c2 (shared descendant/ancestor
     sets), so it fans out to c2's endpoint singletons as well.  Endpoint
     singletons need no copied out-edges: their own adjacency composes. *)
  Digraph.iter_edges gr (fun c1 c2 ->
      if class_to_h.(c1) >= 0 then begin
        if c1 <> c2 || eps_in_class.(c1) = 0 then begin
          if class_to_h.(c2) >= 0 then
            edges := (class_to_h.(c1), class_to_h.(c2)) :: !edges;
          List.iter
            (fun s -> edges := (class_to_h.(c1), s) :: !edges)
            singletons_of.(c2)
        end
      end);
  (* A cyclic class's members are mutually reachable: connect its pieces
     both ways (covers the self-loop case skipped above). *)
  for c = 0 to k - 1 do
    if eps_in_class.(c) > 0 && Digraph.mem_edge gr c c then begin
      let pieces =
        (if class_to_h.(c) >= 0 then [ class_to_h.(c) ] else [])
        @ singletons_of.(c)
      in
      List.iter
        (fun a -> List.iter (fun b -> edges := (a, b) :: !edges) pieces)
        pieces
    end
  done;
  (* Real adjacency of the endpoints in the updated graph.  An edge to or
     from a non-endpoint member w stands for reach to w's whole class piece
     (ancestor sets are shared), hence maps to the class representative. *)
  let node_map = Compressed.hypernode old in
  List.iter
    (fun u ->
      let hu = Mono.Itbl.find member_h u in
      Digraph.iter_succ new_graph u (fun w ->
          let hw =
            if Bitset.mem is_endpoint w then Mono.Itbl.find member_h w
            else class_to_h.(node_map w)
          in
          if hw >= 0 then edges := (hu, hw) :: !edges);
      Digraph.iter_pred new_graph u (fun p ->
          if not (Bitset.mem is_endpoint p) then begin
            let hp = class_to_h.(node_map p) in
            if hp >= 0 then edges := (hp, hu) :: !edges
          end))
    endpoints;
  let h = Digraph.make ~n:nh !edges in
  let member_to_h =
    Array.of_list (List.mapi (fun i u -> (u, n_reps + i)) endpoints)
  in
  { h; class_to_h; member_to_h; member_h; h_origin = Array.sub h_origin 0 nh }

let h_of_node t old ~node =
  (* Expanded members first: with the endpoint expansion a hypernode can
     have both singleton members and a remainder representative. *)
  match Mono.Itbl.find_opt t.member_h node with
  | Some h -> h
  | None ->
      let c = Compressed.hypernode old node in
      if t.class_to_h.(c) >= 0 then t.class_to_h.(c)
      else invalid_arg "Region.h_of_node: node not in region"
