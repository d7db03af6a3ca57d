(* Observability handles.  Visited counts are read off the result bitsets
   after the loops, and frontier sizes reuse lengths the algorithms already
   have, so the disabled cost stays out of the inner loops entirely. *)
let c_visited = Obs.counter "traversal.nodes_visited"
let h_frontier = Obs.histogram "traversal.frontier"

let note_visited visited =
  if Obs.metrics_on () then Obs.add c_visited (Bitset.cardinal visited)

let bfs_generic g ~starts ~seed_visited =
  (* Returns the visited bitset after exhausting the frontier. [seed_visited]
     controls whether the start nodes are marked before expansion, which is
     how nonempty-path semantics differ from reflexive ones. *)
  let visited = Bitset.create (Digraph.n g) in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if seed_visited then Bitset.add visited s;
      Queue.add s q)
    starts;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Digraph.iter_succ g u (fun v ->
        if not (Bitset.mem visited v) then begin
          Bitset.add visited v;
          Queue.add v q
        end)
  done;
  note_visited visited;
  visited

let bfs_reaches g u v =
  u = v ||
  Bitset.mem (bfs_generic g ~starts:[ u ] ~seed_visited:true) v

let bfs_reaches_nonempty g u v =
  (* Do not pre-mark [u]: it only becomes "reached" if rediscovered via a
     cycle. *)
  Bitset.mem (bfs_generic g ~starts:[ u ] ~seed_visited:false) v

let descendants g u = bfs_generic g ~starts:[ u ] ~seed_visited:false

type queue = { cells : int array; mutable tail : int }

let queue n = { cells = Array.make n 0; tail = 0 }

let push q v =
  q.cells.(q.tail) <- v;
  q.tail <- q.tail + 1

let ancestors ?depth g q sources ~into =
  let n = Digraph.n g in
  if Bitset.universe_size sources <> n || Bitset.universe_size into <> n then
    invalid_arg "Traversal.ancestors: set over another universe";
  if into == sources then invalid_arg "Traversal.ancestors: into is sources";
  if Array.length q.cells < n then
    invalid_arg "Traversal.ancestors: queue too short";
  let depth =
    match depth with
    | None -> max_int
    | Some k when k < 0 -> invalid_arg "Traversal.ancestors: negative depth"
    | Some k -> k
  in
  let in_off, in_adj = Digraph.in_csr g in
  Bitset.clear into;
  q.tail <- 0;
  Bitset.iter_with push q sources;
  (* [lo, hi) is the frontier at distance [level] from [sources].  A
     source is expanded once, from level 0: when a path later marks it,
     its predecessors are already marked, so it is not queued again and
     every node enters the queue at most once. *)
  let lo = ref 0 and level = ref 0 in
  (while !lo < q.tail && !level < depth do
     let hi = q.tail in
     incr level;
     while !lo < hi do
       let x = q.cells.(!lo) in
       incr lo;
       for e = in_off.{x} to in_off.{x + 1} - 1 do
         let y = in_adj.{e} in
         if not (Bitset.mem into y) then begin
           Bitset.add into y;
           if not (Bitset.mem sources y) then push q y
         end
       done
     done
   done) [@lint.hot_loop];
  note_visited into

let bibfs_reaches g u v =
  if u = v then true
  else begin
    let n = Digraph.n g in
    let fwd = Bitset.create n and bwd = Bitset.create n in
    Bitset.add fwd u;
    Bitset.add bwd v;
    (* Flat per-side queues: [lo, hi) is the current frontier and
       discoveries append at [hi].  A node enters a side at most once, so
       [n] slots suffice and no per-level allocation happens. *)
    let fq = Array.make n 0 and bq = Array.make n 0 in
    fq.(0) <- u;
    bq.(0) <- v;
    let flo = ref 0 and fhi = ref 1 in
    let blo = ref 0 and bhi = ref 1 in
    (* Expand over the raw CSR arrays rather than [Digraph.iter_succ]:
       the iterator would build one closure per popped node, right inside
       the planner's per-query fallback path. *)
    let out_off, out_adj = Digraph.out_csr g in
    let in_off, in_adj = Digraph.in_csr g in
    (* Expansion cost of each frontier = its degree sum (edges that the
       next level must scan), maintained incrementally at discovery so
       side selection is O(1).  Frontier node counts undersell hubs. *)
    let fcost = ref (out_off.{u + 1} - out_off.{u}) in
    let bcost = ref (in_off.{v + 1} - in_off.{v}) in
    let found = ref false in
    (* An empty side is an exhausted search: its reachable set is complete
       and meet-free, so the answer is already "no" — stop rather than let
       the other side flood the rest of the graph. *)
    (while (not !found) && !flo < !fhi && !blo < !bhi do
       if Obs.metrics_on () then
         Obs.observe h_frontier (float_of_int (!fhi - !flo + (!bhi - !blo)));
       if !fcost <= !bcost then begin
         let hi = !fhi in
         fcost := 0;
         while (not !found) && !flo < hi do
           let x = fq.(!flo) in
           incr flo;
           for e = out_off.{x} to out_off.{x + 1} - 1 do
             let y = out_adj.{e} in
             if Bitset.mem bwd y then found := true
             else if not (Bitset.mem fwd y) then begin
               Bitset.add fwd y;
               fq.(!fhi) <- y;
               incr fhi;
               fcost := !fcost + (out_off.{y + 1} - out_off.{y})
             end
           done
         done
       end
       else begin
         let hi = !bhi in
         bcost := 0;
         while (not !found) && !blo < hi do
           let x = bq.(!blo) in
           incr blo;
           for e = in_off.{x} to in_off.{x + 1} - 1 do
             let y = in_adj.{e} in
             if Bitset.mem fwd y then found := true
             else if not (Bitset.mem bwd y) then begin
               Bitset.add bwd y;
               bq.(!bhi) <- y;
               incr bhi;
               bcost := !bcost + (in_off.{y + 1} - in_off.{y})
             end
           done
         done
       end
     done) [@lint.hot_loop];
    if Obs.metrics_on () then
      Obs.add c_visited (Bitset.cardinal fwd + Bitset.cardinal bwd);
    !found
  end

let dfs_reaches g u v =
  if u = v then true
  else begin
    let visited = Bitset.create (Digraph.n g) in
    let stack = ref [ u ] in
    Bitset.add visited u;
    let found = ref false in
    while (not !found) && !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest ->
          stack := rest;
          Digraph.iter_succ g x (fun w ->
              if w = v then found := true
              else if not (Bitset.mem visited w) then begin
                Bitset.add visited w;
                stack := w :: !stack
              end)
    done;
    note_visited visited;
    !found
  end

let bfs_order g roots =
  let visited = Bitset.create (Digraph.n g) in
  let order = ref [] in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if not (Bitset.mem visited r) then begin
        Bitset.add visited r;
        Queue.add r q
      end)
    roots;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    Digraph.iter_succ g u (fun v ->
        if not (Bitset.mem visited v) then begin
          Bitset.add visited v;
          Queue.add v q
        end)
  done;
  List.rev !order

let budgeted_reaches g u v ~budget =
  let visited = Bitset.create (Digraph.n g) in
  let q = Queue.create () in
  Queue.add u q;
  let expanded = ref 0 in
  let result = ref None in
  (try
     while not (Queue.is_empty q) do
       let x = Queue.pop q in
       incr expanded;
       if !expanded > budget then raise Exit;
       Digraph.iter_succ g x (fun w ->
           if w = v then begin
             result := Some true;
             raise Exit
           end;
           if not (Bitset.mem visited w) then begin
             Bitset.add visited w;
             Queue.add w q
           end)
     done;
     (* Frontier exhausted: v is definitely unreachable by a nonempty path. *)
     result := Some false
   with Exit -> ());
  Obs.add c_visited !expanded;
  !result

let distance g u v =
  if u = v then Some 0
  else begin
    let n = Digraph.n g in
    let dist = Array.make n (-1) in
    dist.(u) <- 0;
    let q = Queue.create () in
    Queue.add u q;
    let result = ref None in
    while !result = None && not (Queue.is_empty q) do
      let x = Queue.pop q in
      Digraph.iter_succ g x (fun w ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(x) + 1;
            if w = v then result := Some dist.(w);
            Queue.add w q
          end)
    done;
    !result
  end
