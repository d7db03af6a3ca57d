type algorithm = Tree_cover | Two_hop | Grail

let all_algorithms = [ Tree_cover; Two_hop; Grail ]

let algorithm_name = function
  | Tree_cover -> "tree-cover"
  | Two_hop -> "two-hop"
  | Grail -> "grail"

type backend =
  | Tree of Tree_cover.t
  | Hop of Two_hop.t
  | Grl of Grail.t

type t = {
  graph_n : int;
  node_map : int array option;
  self_loops : Bitset.t;
  backend : backend;
}

let c_queries = Obs.counter "reach_index.queries"

let algorithm t =
  match t.backend with Tree _ -> Tree_cover | Hop _ -> Two_hop | Grl _ -> Grail

let backend t = t.backend
let indexed_n t = t.graph_n

let original_n t =
  match t.node_map with Some m -> Array.length m | None -> t.graph_n

let node_map t = t.node_map
let self_loops t = t.self_loops

let backend_n = function
  | Tree tc -> Array.length (Tree_cover.comp tc)
  | Hop th -> Array.length (fst (Two_hop.labels th))
  | Grl gl -> Array.length (Grail.comp gl)

let v ~graph_n ?node_map ~self_loops ~backend () =
  if graph_n < 0 then invalid_arg "Reach_index.v: negative node count";
  if Bitset.universe_size self_loops <> graph_n then
    invalid_arg "Reach_index.v: self-loop set universe mismatch";
  if backend_n backend <> graph_n then
    invalid_arg "Reach_index.v: backend size mismatch";
  (match node_map with
  | None -> ()
  | Some m ->
      Array.iter
        (fun h ->
          if h < 0 || h >= graph_n then
            invalid_arg "Reach_index.v: node map entry out of range")
        m);
  { graph_n; node_map; self_loops; backend }

let build ?pool ?(algorithm = Tree_cover) ?node_map g =
  Obs.span "reach_index.build" (fun () ->
      let n = Digraph.n g in
      (match node_map with
      | None -> ()
      | Some m ->
          Array.iter
            (fun h ->
              if h < 0 || h >= n then
                invalid_arg "Reach_index.build: node map entry out of range")
            m);
      (* Hypernodes carrying a self-loop are exactly the cyclic classes:
         distinct originals inside one resolve their queries through it. *)
      let self_loops = Bitset.create n in
      for u = 0 to n - 1 do
        if Digraph.mem_edge g u u then Bitset.add self_loops u
      done;
      let backend =
        match algorithm with
        | Tree_cover ->
            Obs.span "reach_index.build.tree_cover" (fun () ->
                Tree (Tree_cover.build g))
        | Two_hop ->
            Obs.span "reach_index.build.two_hop" (fun () ->
                Hop (Two_hop.build g))
        | Grail ->
            Obs.span "reach_index.build.grail" (fun () ->
                Grl (Grail.build ?pool g))
      in
      { graph_n = n; node_map; self_loops; backend })

(* One probe, uncounted, as 0 or 1: [query] counts it, [query_into]
   counts its whole slice at once. *)
let[@lint.hot_loop] [@inline] probe t source target =
  (* Two separate matches rather than one binding a pair: a fresh (s, d)
     tuple would be allocated on every query. *)
  let s = match t.node_map with None -> source | Some m -> m.(source) in
  let d = match t.node_map with None -> target | Some m -> m.(target) in
  match t.backend with
  | Tree tc ->
      (* (source = target) ∨ (s = d ∧ loop s) ∨ (s ≠ d ∧ s ⇝ d), in
         integer arithmetic: no branch depends on the pair.  Distinct
         hypernodes of one component reach each other through the probe,
         since every row holds its own post rank. *)
      let same = Bool.to_int (s = d) in
      Bool.to_int (source = target)
      lor (same land Bool.to_int (Bitset.mem t.self_loops s))
      lor ((1 - same) land Bool.to_int (Tree_cover.query tc s d))
  | Hop th when s <> d -> Bool.to_int (Two_hop.query th s d)
  | Grl gl when s <> d ->
      (* lint: allow ALLOC02 — GRAIL's interval miss falls back to a
         pruned DFS that allocates a visited bitset by design; the
         planner only picks GRAIL when the sampled fallback rate is
         low, so the common path stays allocation-free. *)
      Bool.to_int (Grail.query gl s d)
  | Hop _ | Grl _ -> Bool.to_int (source = target || Bitset.mem t.self_loops s)

let answer t source target = probe t source target = 1

let count_queries k = Obs.add c_queries k

let query t ~source ~target =
  Obs.incr c_queries;
  answer t source target

let query_into ?pool t ~src ~dst ~off ~len out =
  Reach_query.check_slice "Reach_index.query_into" ~src ~dst ~off ~len out;
  Obs.span "reach_index.batch" (fun () ->
      let pool = match pool with Some p -> p | None -> Pool.default () in
      count_queries len;
      Pool.parallel_for_ranges pool ~n:len (fun lo hi ->
          for i = off + lo to off + hi - 1 do
            Bytes.set_uint8 out i (probe t src.(i) dst.(i))
          done))


let memory_bytes t =
  let backend_bytes =
    match t.backend with
    | Tree tc -> Tree_cover.memory_bytes tc
    | Hop th -> Two_hop.memory_bytes th
    | Grl gl -> Grail.memory_bytes gl
  in
  let map_bytes =
    match t.node_map with Some m -> 8 * Array.length m | None -> 0
  in
  backend_bytes + map_bytes + (8 * ((t.graph_n + 62) / 63))
