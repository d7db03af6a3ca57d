let compute g ~k =
  if k < 0 then invalid_arg "Kbisim.compute: negative k";
  let cur = ref (Partition.normalize_assignment (Array.copy (Digraph.labels g))) in
  for _ = 1 to k do
    cur := Bisim_oracle.refine_once g !cur
  done;
  Partition.normalize_assignment !cur

let compute_backward g ~k = compute (Digraph.reverse g) ~k

let quotient_of g assignment =
  let blocks = Array.fold_left (fun acc b -> Mono.imax acc (b + 1)) 1 assignment in
  let labels = Array.make blocks 0 in
  Array.iteri (fun v b -> labels.(b) <- Digraph.label g v) assignment;
  ( Digraph.quotient ~labels ~self_loops:true ~class_of:assignment ~k:blocks g,
    assignment )

let index_graph g ~k = quotient_of g (compute g ~k)
let index_graph_backward g ~k = quotient_of g (compute_backward g ~k)

let compute_dk g ~k_of =
  let n = Digraph.n g in
  let ks = Array.init n k_of in
  Array.iter
    (fun k -> if k < 0 then invalid_arg "Kbisim.compute_dk: negative k")
    ks;
  if n = 0 then [||]
  else begin
    let kmax = Array.fold_left Mono.imax 0 ks in
    (* backward k-bisimulation for every depth up to kmax, reusing each
       round: partitions.(k) is the backward k-bisimilarity assignment *)
    let rev = Digraph.reverse g in
    let partitions = Array.make (kmax + 1) [||] in
    partitions.(0) <- Partition.normalize_assignment (Array.copy (Digraph.labels g));
    for k = 1 to kmax do
      partitions.(k) <- Bisim_oracle.refine_once rev partitions.(k - 1)
    done;
    (* group by the pair (own k, class at that k) *)
    (* keyed grouping by (k, class) pair — not on the refinement hot path *)
    let tbl = Mono.Ptbl.create (2 * n + 1) in
    let next = ref 0 in
    Array.init n (fun v ->
        let key = (ks.(v), partitions.(ks.(v)).(v)) in
        match Mono.Ptbl.find_opt tbl key with
        | Some b -> b
        | None ->
            let b = !next in
            incr next;
            Mono.Ptbl.replace tbl key b;
            b)
    |> Partition.normalize_assignment
  end

let one_index ?pool g =
  quotient_of g (Bisimulation.max_bisimulation ?pool (Digraph.reverse g))
