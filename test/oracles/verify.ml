let reach_preserved g c =
  let n = Digraph.n g in
  let ok = ref true in
  for u = 0 to n - 1 do
    if !ok then begin
      let desc = Traversal.descendants g u in
      for w = 0 to n - 1 do
        if !ok then begin
          let truth = u = w || Bitset.mem desc w in
          if Compress_reach.answer c ~source:u ~target:w <> truth then
            ok := false
        end
      done
    end
  done;
  !ok

let reach_preserved_sampled rng g c ~samples =
  let n = Digraph.n g in
  n = 0
  ||
  let ok = ref true in
  for _ = 1 to samples do
    if !ok then begin
      let u = Random.State.int rng n and w = Random.State.int rng n in
      let truth = Traversal.bfs_reaches g u w in
      if Compress_reach.answer c ~source:u ~target:w <> truth then ok := false
    end
  done;
  !ok

let pattern_preserved p g c =
  Pattern.result_equal (Bounded_sim.eval p g) (Compress_bisim.answer p c)

let partition_of_compressed c =
  Array.init (Compressed.original_n c) (fun v -> Compressed.hypernode c v)

let is_reach_equivalence g c =
  let reference = Reach_oracle.compute_naive g in
  Partition.equivalent reference.Reach_equiv.class_of (partition_of_compressed c)

let is_max_bisimulation g c =
  let reference = Bisim_oracle.max_bisimulation_naive g in
  Partition.equivalent reference (partition_of_compressed c)

let same_compression a b =
  let pa = partition_of_compressed a and pb = partition_of_compressed b in
  Array.length pa = Array.length pb
  && Partition.equivalent pa pb
  &&
  (* The shared partition induces a hypernode bijection; compare graphs
     through it. *)
  let ga = Compressed.graph a and gb = Compressed.graph b in
  Digraph.n ga = Digraph.n gb
  && Digraph.m ga = Digraph.m gb
  &&
  let to_b = Array.make (Digraph.n ga) (-1) in
  Array.iteri (fun v ha -> to_b.(ha) <- pb.(v)) pa;
  let ok = ref true in
  for ha = 0 to Digraph.n ga - 1 do
    if !ok && Digraph.label ga ha <> Digraph.label gb to_b.(ha) then ok := false
  done;
  Digraph.iter_edges ga (fun x y ->
      if !ok && not (Digraph.mem_edge gb to_b.(x) to_b.(y)) then ok := false);
  !ok

let well_formed c ~original =
  let n = Digraph.n original in
  Compressed.original_n c = n
  &&
  let gr = Compressed.graph c in
  let seen = Bitset.create n in
  let ok = ref true in
  for h = 0 to Digraph.n gr - 1 do
    let _, _, size = Compressed.member_slice c h in
    if size = 0 then ok := false;
    Compressed.iter_members c h (fun v ->
        if v < 0 || v >= n || Bitset.mem seen v then ok := false
        else begin
          Bitset.add seen v;
          if Compressed.hypernode c v <> h then ok := false
        end)
  done;
  !ok
  && Bitset.cardinal seen = n
  &&
  (* Every hypernode edge must be justified: some member edge crosses it,
     or it is a reachability shortcut between mutually reachable members
     (self-loop on a cyclic class). *)
  let justified = ref true in
  Digraph.iter_edges gr (fun x y ->
      if !justified then begin
        let found = ref false in
        Compressed.iter_members c x (fun u ->
            if not !found then
              Digraph.iter_succ original u (fun w ->
                  if (not !found) && Compressed.hypernode c w = y then
                    found := true));
        if not !found then
          if x = y then begin
            (* Accept a self-loop when the class is genuinely cyclic. *)
            let ids, start, _ = Compressed.member_slice c x in
            let m0 = ids.(start) in
            if not (Traversal.bfs_reaches_nonempty original m0 m0) then
              justified := false
          end
          else justified := false
      end);
  !justified
