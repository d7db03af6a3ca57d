(* Candidate bitsets over one data graph, and the space of the backward
   search of a bound k or [*] edge, sized on first use so that bound-1
   patterns pay nothing for it.  [by_succ] is the graph's
   successor-label filter ({!Digraph.succ_labelled}) during a
   [match_into], and [[||]] under [eval] and [refine], which then run
   without it; [whole.(u)] says that cand(u) still holds every node
   labelled fv(u). *)
type scratch = {
  on : Digraph.t;
  mutable sets : Bitset.t array;
  mutable whole : bool array;
  mutable by_succ : Bitset.t array;
  mutable reach : Bitset.t;
  mutable queue : Traversal.queue;
}

let scratch g =
  {
    on = g;
    sets = [||];
    whole = [||];
    by_succ = [||];
    reach = Bitset.create 0;
    queue = Traversal.queue 0;
  }

(* A bound k or [*] edge (u, u'): cand(u) keeps the nodes with a
   nonempty path of at most k edges (any length for [*]) into cand(u'),
   all marked by one backward search from cand(u'). *)
let keep_ancestors ?depth s cu cu' =
  let n = Digraph.n s.on in
  if Bitset.universe_size s.reach <> n then begin
    s.reach <- Bitset.create n;
    s.queue <- Traversal.queue n
  end;
  Traversal.ancestors ?depth s.on s.queue cu' ~into:s.reach;
  Bitset.inter_into ~into:cu s.reach

(* A bound-1 edge (u, u').  With the filter, cand(u) first keeps the
   nodes with a successor labelled fv(u'), one AND; while cand(u') holds
   every node of that label the AND is the whole step, and otherwise
   the successor scan runs on what it kept.  A label no node carries
   leaves cand(u') empty, so cand(u) too. *)
let keep_with_succ s p cand u u' =
  let cu = cand.(u) and l = Pattern.label p u' in
  if Array.length s.by_succ = 0 then Digraph.keep_with_succ_in s.on cu cand.(u')
  else if l < 0 || l >= Array.length s.by_succ then begin
    let dropped = not (Bitset.is_empty cu) in
    Bitset.clear cu;
    dropped
  end
  else
    let dropped = Bitset.inter_into ~into:cu s.by_succ.(l) in
    if s.whole.(u') then dropped
    else Digraph.keep_with_succ_in s.on cu cand.(u') || dropped

(* Drop from cand(u) the candidates without a witness in cand(u') along
   one pattern edge: a successor for bound 1, a node of the backward
   search for a bound k or [*].  [true] iff something was dropped. *)
let prune_edge s p cand u u' = function
  | Pattern.Bounded 1 -> keep_with_succ s p cand u u'
  | Pattern.Bounded k -> keep_ancestors ~depth:k s cand.(u) cand.(u')
  | Pattern.Unbounded -> keep_ancestors s cand.(u) cand.(u')

let rec prune_edges s p cand u edges dropped =
  match edges with
  | [] -> dropped
  | (u', b) :: rest ->
      let d = prune_edge s p cand u u' b in
      if d && u < Array.length s.whole then s.whole.(u) <- false;
      prune_edges s p cand u rest (d || dropped)

(* Drop from cand(u) every node lacking a witness for some out-edge of
   u; [true] iff something was dropped. *)
let prune s p cand u = prune_edges s p cand u (Pattern.out_edges p u) false

let rec all_kept cand np u =
  u >= np || ((not (Bitset.is_empty cand.(u))) && all_kept cand np (u + 1))

(* The removal fixpoint on [cand.(0 .. np - 1)] in place, where [cand]
   may be longer than the pattern; [true] iff every pattern node keeps a
   candidate.  The one kernel under [refine], [eval] and [match_into]. *)
let fixpoint s p cand =
  let np = Pattern.node_count p in
  if Pattern.is_acyclic p then
    (* Children before parents: when u is pruned its children's sets
       are already final, and pruning u only affects u's parents, so
       this single pass is the greatest fixpoint for every bound. *)
    for i = np - 1 downto 0 do
      ignore (prune s p cand (Pattern.topo_node p i) : bool)
    done
  else begin
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to np - 1 do
        if prune s p cand u then changed := true
      done
    done
  end;
  all_kept cand np 0

let refine p g ~cand =
  if Array.length cand <> Pattern.node_count p then
    invalid_arg "Bounded_sim.refine: candidate array length mismatch";
  if fixpoint (scratch g) p cand then Some (Array.map Bitset.to_array cand)
  else None

(* Reset [c] to [ids.(start) .. ids.(start + len - 1)], which ascend
   strictly: when the last is the first plus [len - 1] they are every id
   between the two, and whole words are set at once.  On a Gr built by
   Compress_bisim, which numbers hypernodes by label, every label is
   such a range; elsewhere the ids are added one by one. *)
let[@lint.hot_loop] fill_label c ids start len =
  Bitset.clear c;
  if len > 0 && ids.(start + len - 1) - ids.(start) = len - 1 then
    Bitset.add_range c ids.(start) (ids.(start + len - 1) + 1)
  else Bitset.add_slice c ids start len

(* Reset [cand.(u)] to the nodes labelled [fv(u)], for each pattern node. *)
let fill_labels p g cand =
  let ids = Digraph.label_ids g in
  for u = 0 to Pattern.node_count p - 1 do
    let l = Pattern.label p u in
    fill_label cand.(u) ids (Digraph.label_first g l) (Digraph.label_len g l)
  done

let label_candidates p g =
  let cand =
    Array.init (Pattern.node_count p) (fun _ -> Bitset.create (Digraph.n g))
  in
  fill_labels p g cand;
  cand

let eval p g = refine p g ~cand:(label_candidates p g)

(* The sets a scratch keeps between queries: a wider pattern's extra
   ones are dropped at the next query. *)
let steady_sets = 64

let match_into s p =
  let np = Pattern.node_count p and have = Array.length s.sets in
  let keep = Mono.imax np steady_sets in
  if have < np then begin
    s.sets <-
      Array.init np (fun u ->
          if u < have then s.sets.(u) else Bitset.create (Digraph.n s.on));
    s.whole <- Array.make np true
  end
  else if have > keep then begin
    s.sets <- Array.sub s.sets 0 keep;
    s.whole <- Array.make keep true
  end;
  Array.fill s.whole 0 np true;
  s.by_succ <- Digraph.succ_labelled s.on;
  fill_labels p s.on s.sets;
  fixpoint s p s.sets

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

let eval_boolean p g =
  match eval p g with Some _ -> true | None -> false
