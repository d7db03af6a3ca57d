let get_pool = function Some p -> p | None -> Pool.default ()

let compress_of_equiv ?pool g re =
  let k = re.Reach_equiv.count in
  if k = 0 then Compressed.v ~graph:Digraph.empty ~node_map:[||]
  else begin
    (* Class-level edges, without self-loops: between distinct classes the
       quotient is a DAG, so the redundant-edge rule of Fig 5 is its unique
       transitive reduction. *)
    let quotient =
      Obs.span "compressR.quotient" (fun () ->
          Digraph.quotient ~self_loops:false ~class_of:re.Reach_equiv.class_of
            ~k g)
    in
    let reduced =
      Obs.span "compressR.reduce" (fun () ->
          Transitive.reduction_dag ?pool quotient)
    in
    (* Self-loops mark cyclic classes: a member reaches itself by a nonempty
       path iff its hypernode does. *)
    let self_loops = ref [] in
    Array.iteri
      (fun c cyc -> if cyc then self_loops := (c, c) :: !self_loops)
      re.Reach_equiv.cyclic;
    let graph = Digraph.add_edges reduced !self_loops in
    Compressed.v ~graph ~node_map:re.Reach_equiv.class_of
  end

let compress ?pool g =
  Obs.span "compressR" (fun () ->
      compress_of_equiv ?pool g (Reach_equiv.compute g))

(* Fig 5 verbatim: per-node forward/backward BFS, then group nodes with
   equal (ancestors, descendants).  Quadratic, like the paper's bound.

   The per-node traversals are embarrassingly parallel — each node's
   ancestor/descendant bitsets depend only on the immutable graph — so they
   fan out over the pool, writing results by node index.  The traversal
   uses a flat int worklist reused across the nodes of a chunk (the visited
   SET does not depend on expansion order, so a stack discipline is as
   correct as the paper's queue and far cheaper than boxed Queue cells).
   The bucket-grouping stage stays sequential and reads the precomputed
   arrays in ascending node order, so class numbering is deterministic and
   identical for every domain count. *)
let compress_paper ?pool g =
  let pool = get_pool pool in
  let n = Digraph.n g in
  if n = 0 then Compressed.v ~graph:Digraph.empty ~node_map:[||]
  else begin
    let desc = Array.make n (Bitset.create 0) in
    let anc = Array.make n (Bitset.create 0) in
    Pool.parallel_for_ranges pool ~n (fun lo hi ->
        let stack = ref (Array.make 1024 0) in
        let sp = ref 0 in
        let push x =
          if !sp = Array.length !stack then begin
            let bigger = Array.make (2 * !sp) 0 in
            Array.blit !stack 0 bigger 0 !sp;
            stack := bigger
          end;
          !stack.(!sp) <- x;
          incr sp
        in
        let traverse start ~forward =
          let visited = Bitset.create n in
          sp := 0;
          push start;
          while !sp > 0 do
            decr sp;
            let x = !stack.(!sp) in
            let visit y =
              if not (Bitset.mem visited y) then begin
                Bitset.add visited y;
                push y
              end
            in
            if forward then Digraph.iter_succ g x visit
            else Digraph.iter_pred g x visit
          done;
          visited
        in
        for v = lo to hi - 1 do
          desc.(v) <- traverse v ~forward:true;
          anc.(v) <- traverse v ~forward:false
        done);
    (* Group by (ancestor set, descendant set): hash first, verify within
       buckets to rule out collisions. *)
    let buckets : (int * Bitset.t * Bitset.t) list ref Mono.Ptbl.t =
      Mono.Ptbl.create (2 * n)
    in
    for v = 0 to n - 1 do
      let key = (Bitset.hash anc.(v), Bitset.hash desc.(v)) in
      match Mono.Ptbl.find_opt buckets key with
      | Some l -> l := (v, anc.(v), desc.(v)) :: !l
      | None -> Mono.Ptbl.replace buckets key (ref [ (v, anc.(v), desc.(v)) ])
    done;
    let class_of = Array.make n (-1) in
    let cyclic_acc = ref [] in
    let count = ref 0 in
    Mono.Ptbl.iter
      (fun _ l ->
        let remaining = ref !l in
        while !remaining <> [] do
          match !remaining with
          | [] -> ()
          | (rep, ranc, rdesc) :: rest ->
              let cls = !count in
              incr count;
              class_of.(rep) <- cls;
              if Bitset.mem rdesc rep then cyclic_acc := cls :: !cyclic_acc;
              let keep = ref [] in
              List.iter
                (fun ((v, anc, desc) as entry) ->
                  if Bitset.equal anc ranc && Bitset.equal desc rdesc then
                    class_of.(v) <- cls
                  else keep := entry :: !keep)
                rest;
              remaining := !keep
        done)
      buckets;
    let cyclic = Array.make !count false in
    List.iter (fun c -> cyclic.(c) <- true) !cyclic_acc;
    compress_of_equiv ~pool g
      { Reach_equiv.count = !count; class_of; cyclic }
  end

let rewrite c ~source ~target =
  (Compressed.hypernode c source, Compressed.hypernode c target)

let index ?pool ?algorithm c =
  Reach_index.build ?pool ?algorithm ~node_map:c.Compressed.node_map
    (Compressed.graph c)

let answer ?(algorithm = Reach_query.Bfs) c ~source ~target =
  if source = target then true
  else begin
    let s, t = rewrite c ~source ~target in
    Reach_query.eval_nonempty algorithm (Compressed.graph c) ~source:s
      ~target:t
  end

let answer_batch ?pool ?(algorithm = Reach_query.Bfs) c pairs =
  let pool = get_pool pool in
  let res = Array.make (Array.length pairs) false in
  Pool.parallel_for pool ~n:(Array.length pairs) (fun i ->
      let source, target = pairs.(i) in
      res.(i) <- answer ~algorithm c ~source ~target);
  res
