let max_bisimulation ?pool g =
  Paige_tarjan.coarsest_stable_refinement ?pool g ~initial:(Digraph.labels g)

let is_stable_partition g assignment =
  let n = Digraph.n g in
  if Array.length assignment <> n then false
  else begin
    let sig_of v =
      Digraph.fold_succ g v (fun acc w -> assignment.(w) :: acc) []
      |> List.sort_uniq Mono.icompare
    in
    let repr : (int * int list) Mono.Itbl.t = Mono.Itbl.create 64 in
    let ok = ref true in
    for v = 0 to n - 1 do
      if !ok then
        match Mono.Itbl.find_opt repr assignment.(v) with
        | None -> Mono.Itbl.replace repr assignment.(v) (Digraph.label g v, sig_of v)
        | Some (l, s) ->
            if l <> Digraph.label g v || s <> sig_of v then ok := false
    done;
    !ok
  end

let bisimilar g u v =
  let a = max_bisimulation g in
  a.(u) = a.(v)
