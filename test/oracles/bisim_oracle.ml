(* Signature keys are (block, sorted successor blocks), in a keyed table
   with a monomorphic FNV-style hash. *)
module Sig_tbl = Hashtbl.Make (struct
  type t = int * int list

  let equal ((b1, s1) : t) ((b2, s2) : t) =
    b1 = b2
    && (try List.for_all2 (fun (x : int) (y : int) -> x = y) s1 s2
        with Invalid_argument _ -> false)

  let hash ((b, s) : t) =
    List.fold_left
      (fun h (x : int) -> ((h * 0x100000001b3) lxor x) land max_int)
      (Mono.mix_int b) s
end)

(* Signature refinement: re-key every node by (current block, sorted set of
   successor blocks) until the block count stops growing. *)
let refine_step g cur =
  let n = Digraph.n g in
  let tbl = Sig_tbl.create (2 * n + 1) in
  let next = Array.make n 0 in
  let count = ref 0 in
  for v = 0 to n - 1 do
    let succs =
      Digraph.fold_succ g v (fun acc w -> cur.(w) :: acc) []
      |> List.sort_uniq Mono.icompare
    in
    let key = (cur.(v), succs) in
    let b =
      match Sig_tbl.find_opt tbl key with
      | Some b -> b
      | None ->
          let b = !count in
          incr count;
          Sig_tbl.replace tbl key b;
          b
    in
    next.(v) <- b
  done;
  (next, !count)

let block_count a =
  let seen = Mono.Itbl.create 16 in
  Array.iter (fun b -> Mono.Itbl.replace seen b ()) a;
  Mono.Itbl.length seen

let refine_once g cur = fst (refine_step g cur)

let max_bisimulation_naive g =
  let rec go cur k =
    let next, k' = refine_step g cur in
    if k' = k then Partition.normalize_assignment next else go next k'
  in
  let init = Partition.normalize_assignment (Array.copy (Digraph.labels g)) in
  if Digraph.n g = 0 then [||] else go init (block_count init)

(* Dovier-Piazza-Policriti: stratify by bisimulation rank, refine each
   stratum against the settled lower strata.  A stratum's nodes can depend
   on each other (cycles share a rank), so each stratum runs Paige-Tarjan on
   an auxiliary graph in which every settled lower block appears as a single
   inert node with a unique synthetic label. *)
let max_bisimulation_ranked g =
  let n = Digraph.n g in
  if n = 0 then [||]
  else begin
    let scc = Scc.compute g in
    let rb = Topo_rank.bisim_ranks g scc in
    (* strata in ascending rank order, -inf first *)
    let ranks =
      Array.to_list rb |> List.sort_uniq Mono.icompare
    in
    let block_of = Array.make n (-1) in
    let next_block = ref 0 in
    let label_count = Digraph.label_count g in
    List.iter
      (fun rank ->
        let members =
          List.filter (fun v -> rb.(v) = rank) (List.init n Fun.id)
        in
        (* auxiliary graph: stratum members plus one node per lower block
           referenced by their children *)
        let lower_blocks = Mono.Itbl.create 16 in
        List.iter
          (fun v ->
            Digraph.iter_succ g v (fun w ->
                if rb.(w) <> rank then begin
                  assert (block_of.(w) >= 0);
                  if not (Mono.Itbl.mem lower_blocks block_of.(w)) then
                    Mono.Itbl.replace lower_blocks block_of.(w)
                      (Mono.Itbl.length lower_blocks)
                end))
          members;
        let k = List.length members in
        let aux_n = k + Mono.Itbl.length lower_blocks in
        let index_of = Mono.Itbl.create (2 * k + 1) in
        List.iteri (fun i v -> Mono.Itbl.replace index_of v i) members;
        let labels = Array.make (Mono.imax 1 aux_n) 0 in
        List.iteri (fun i v -> labels.(i) <- Digraph.label g v) members;
        Mono.Itbl.iter
          (fun blk slot -> labels.(k + slot) <- label_count + blk)
          lower_blocks;
        let edges = ref [] in
        List.iteri
          (fun i v ->
            Digraph.iter_succ g v (fun w ->
                if rb.(w) = rank then
                  edges := (i, Mono.Itbl.find index_of w) :: !edges
                else
                  edges :=
                    (i, k + Mono.Itbl.find lower_blocks block_of.(w)) :: !edges))
          members;
        let aux =
          Digraph.make ~n:aux_n ~labels:(Array.sub labels 0 aux_n) !edges
        in
        let assignment =
          Paige_tarjan.coarsest_stable_refinement aux
            ~initial:(Digraph.labels aux)
        in
        (* commit the stratum's blocks with globally fresh ids *)
        let fresh = Mono.Itbl.create 16 in
        List.iteri
          (fun i v ->
            let b = assignment.(i) in
            let id =
              match Mono.Itbl.find_opt fresh b with
              | Some id -> id
              | None ->
                  let id = !next_block in
                  incr next_block;
                  Mono.Itbl.replace fresh b id;
                  id
            in
            block_of.(v) <- id)
          members)
      ranks;
    Partition.normalize_assignment block_of
  end

