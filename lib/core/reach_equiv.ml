type t = { count : int; class_of : int array; cyclic : bool array }

let of_scc_grouping g scc ~scc_class ~class_count =
  (* Lift a grouping of SCCs to a grouping of nodes. *)
  let class_of = Array.init (Digraph.n g) (fun v -> scc_class.(scc.Scc.comp.(v))) in
  let cyclic = Array.make class_count false in
  for s = 0 to scc.Scc.count - 1 do
    if scc.Scc.nontrivial.(s) then cyclic.(scc_class.(s)) <- true
  done;
  { count = class_count; class_of; cyclic }

let compute g =
  let n = Digraph.n g in
  if n = 0 then { count = 0; class_of = [||]; cyclic = [||] }
  else begin
    let scc = Obs.span "compressR.scc" (fun () -> Scc.compute g) in
    let cond = Scc.condensation g scc in
    let k = scc.Scc.count in
    let cyclic = scc.Scc.nontrivial in
    (* Group SCCs on the (descendants, ancestors) pair of reachability sets.
       Two SCCs with equal SCC-level sets have members with equal node-level
       sets and vice versa.  One pass per direction, each refining the
       previous grouping.

       A sealed set is never written again, so SCCs with equal sets share
       one bitset: only a class representative's set is allocated, built in
       one reused scratch set, and every other SCC points at its class's
       set.  Two shapes need no building at all: a trivial SCC with no
       neighbour in the sweep direction has the shared empty set, and a
       trivial SCC whose only neighbour c' is cyclic has exactly c''s set
       ({c'} ∪ set(c') = set(c'), as a cyclic SCC contains itself).  A
       pass allocates at most one set per class, the scratch and the
       empty set: (#classes + 2)·k/63 words (DESIGN §2.1). *)
    let empty = Bitset.create k in
    let empty_hash = Bitset.hash empty in
    let scratch = Bitset.create k in
    let pass ~prev ~asc =
      (* [asc]: ascending ids with successor unions builds descendant sets
         (ascending SCC id is reverse topological order); descending with
         predecessor unions builds ancestor sets.  Returns the refined
         grouping (classes dense in discovery order) and its class count. *)
      let slice = if asc then Digraph.succ_slice cond else Digraph.pred_slice cond in
      let sets = Array.make k empty in
      let hashes = Array.make k empty_hash in
      let cls = Array.make k (-1) in
      let count = ref 0 in
      (* Hash then verify: bucket representatives by (previous class, set
         hash), compare candidates against them by true set equality to
         rule out collisions. *)
      let buckets : int list ref Mono.Ptbl.t = Mono.Ptbl.create (2 * k) in
      let seal c s h =
        let fresh reps =
          cls.(c) <- !count;
          incr count;
          sets.(c) <- (if s == scratch then Bitset.copy s else s);
          c :: reps
        in
        hashes.(c) <- h;
        let key = (prev.(c), h) in
        match Mono.Ptbl.find_opt buckets key with
        | None -> Mono.Ptbl.replace buckets key (ref (fresh []))
        | Some reps -> (
            match List.find_opt (fun r -> Bitset.equal s sets.(r)) !reps with
            | Some r ->
                cls.(c) <- cls.(r);
                sets.(c) <- sets.(r)
            | None -> reps := fresh !reps)
      in
      let process c =
        let base, start, len = slice c in
        if len = 0 && not cyclic.(c) then seal c empty empty_hash
        else if len = 1 && (not cyclic.(c)) && cyclic.(base.{start}) then
          seal c sets.(base.{start}) hashes.(base.{start})
        else begin
          Bitset.clear scratch;
          if cyclic.(c) then Bitset.add scratch c;
          for i = start to start + len - 1 do
            let c' = base.{i} in
            (* The sets are transitively closed, so once c' is a member an
               earlier neighbour has absorbed its whole set: skip the
               O(k/63) union sweep.  When the union does run, its changed
               flag spares the membership update for cyclic SCCs: they
               contain themselves, so any growth carried c' in with it. *)
            if not (Bitset.mem scratch c') then
              if
                sets.(c') != empty
                && Bitset.union_into ~into:scratch sets.(c')
                && cyclic.(c')
              then ()
              else Bitset.add scratch c'
          done;
          seal c scratch (Bitset.hash scratch)
        end
      in
      if asc then
        for c = 0 to k - 1 do
          process c
        done
      else
        for c = k - 1 downto 0 do
          process c
        done;
      (cls, !count)
    in
    let dclass, _ =
      Obs.span "compressR.desc_pass" (fun () ->
          pass ~prev:(Array.make k 0) ~asc:true)
    in
    let scc_class, class_count =
      Obs.span "compressR.anc_pass" (fun () -> pass ~prev:dclass ~asc:false)
    in
    of_scc_grouping g scc ~scc_class ~class_count
  end

let equivalent t u v = t.class_of.(u) = t.class_of.(v)
