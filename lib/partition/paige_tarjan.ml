(* Flat-array Paige–Tarjan.

   Super-blocks (the X-blocks of the classic algorithm) are kept as
   contiguous ranges [first, first+size) over the Partition's element
   permutation: every P-block inside a super-block occupies a sub-range, so
   "the first P-block of S" is [Partition.block_of] of the element at S's
   first position, and S is compound iff that block is smaller than S.
   Splits carve new blocks inside their parent's range, so ranges never need
   repair; detaching a block from the front costs O(detached) via
   [Partition.rotate_adjacent].

   count(u, S) — the number of edges from u into super-block S — lives in a
   flat counter pool: [cnt_of_edge.(e)] maps in-CSR edge position e to a
   pool slot shared by all edges with the same source and target
   super-block.  Moving an edge from count(u, S) to count(u, B) is two
   array updates; the "no edge left into S \ B" test of the three-way split
   is one array load.  No hash table is touched anywhere in the loop.

   Slots are recycled through a free list.  Capacity m + n + 1 suffices:
   live slots with positive count sum to m (every edge contributes to
   exactly one), and at any instant at most n old counters sit transiently
   at zero awaiting end-of-round recycling.

   The worklist is a flat stack of super-block ids with a [queued] flag per
   id (each id enqueued at most once); entries that turn out simple are
   skipped at pop (lazy deletion).  Processing order differs from the
   classic FIFO but the coarsest stable refinement is unique, so the
   normalized output is identical. *)

(* Observability handles.  Each record call is one branch while metrics
   are off, and the per-round block below is hoisted behind a single
   [Obs.metrics_on] check, so the refinement loop stays within the bench
   overhead budget when observability is disabled. *)
let c_rounds = Obs.counter "pt.rounds"
let c_splits = Obs.counter "pt.splits"
let c_marks = Obs.counter "pt.marks"
let h_detach = Obs.histogram "pt.detach_size"

let coarsest_stable_refinement ?pool g ~initial =
  let n = Digraph.n g in
  if Array.length initial <> n then
    invalid_arg "Paige_tarjan: initial partition length mismatch";
  if n = 0 then [||]
  else begin
    let pool = match pool with Some p -> p | None -> Pool.default () in
    (* Dense CSR justified: the refinement rounds index the counter pool by
       absolute CSR edge position and binary-search offset arrays, which
       slices cannot provide.  On the CSR store (flat or mmap) these are
       the graph's own arrays; a varint graph materialises them once, and
       every round reuses them. *)
    let out_off, _ = Digraph.out_csr g (* lint: allow CSR02 *) in
    let in_off, in_adj = Digraph.in_csr g (* lint: allow CSR02 *) in
    let m = Bigarray.Array1.dim in_adj in
    (* Pre-split every initial class on "has a successor", which makes the
       partition stable w.r.t. the universe block.  Per-node key
       computation is embarrassingly parallel (disjoint writes), so the
       result is bit-identical to the sequential fill. *)
    let p =
      Obs.span "compressB.presplit" (fun () ->
          let keys = Array.make n 0 in
          Pool.parallel_for pool ~n (fun v ->
              keys.(v) <-
                (initial.(v) * 2)
                + if out_off.{v + 1} > out_off.{v} then 1 else 0);
          Partition.create_with keys)
    in
    (* Super-blocks: contiguous element ranges.  At most one super-block per
       P-block ever exists, and P-blocks never exceed n. *)
    let cap = n + 1 in
    let sb_first = Array.make cap 0 in
    let sb_size = Array.make cap 0 in
    let sb_of_blk = Array.make n 0 in
    let sb_count = ref 1 in
    sb_size.(0) <- n;
    (* Counter pool. *)
    let ccap = m + n + 1 in
    let cval = Array.make ccap 0 in
    let free = Array.make ccap 0 in
    let free_len = ref 0 in
    let next_slot = ref 0 in
    let alloc_slot () =
      if !free_len > 0 then begin
        decr free_len;
        free.(!free_len)
      end
      else begin
        let c = !next_slot in
        incr next_slot;
        c
      end
    in
    (* Initially every out-edge of u counts toward super-block 0, so u's
       edges all share one slot holding its out-degree. *)
    let node_cnt = Array.make n (-1) in
    let cnt_of_edge = Array.make (Mono.imax 1 m) 0 in
    Obs.span "compressB.init_counters" (fun () ->
        for u = 0 to n - 1 do
          let d = out_off.{u + 1} - out_off.{u} in
          if d > 0 then begin
            let c = alloc_slot () in
            cval.(c) <- d;
            node_cnt.(u) <- c
          end
        done;
        Pool.parallel_for pool ~n:m (fun e ->
            cnt_of_edge.(e) <- node_cnt.(in_adj.{e})));
    (* Per-round scratch: E⁻¹(B) and each member's old/new counter slot. *)
    let preds = Array.make n 0 in
    let old_cnt = Array.make n 0 in
    let new_cnt = Array.make n (-1) in
    (* Worklist stack with lazy deletion. *)
    let work = Array.make cap 0 in
    let work_len = ref 0 in
    let queued = Array.make cap false in
    let enqueue x =
      if not queued.(x) then begin
        queued.(x) <- true;
        work.(!work_len) <- x;
        incr work_len
      end
    in
    enqueue 0;
    let attach_split ~old_block ~new_block =
      Obs.incr c_splits;
      let x = sb_of_blk.(old_block) in
      sb_of_blk.(new_block) <- x;
      enqueue x
    in
    (* Hoisted out of the refine loop (along with the closure below): a ref
       or closure created per round would allocate inside the hot loop. *)
    let preds_len = ref 0 in
    (* Move edge counts of one member of B from (·, S) to (·, B),
       collecting E⁻¹(B) into [preds].  The first edge of each predecessor
       allocates its (u, new S) slot and records its (u, S) slot for the
       phase-2 "no edge left into S \ B" test.  Captures only
       loop-invariant state, so one closure serves every round. *)
    let move_counts v =
      for e = in_off.{v} to in_off.{v + 1} - 1 do
        let u = in_adj.{e} in
        let c = cnt_of_edge.(e) in
        let cn =
          let cn = new_cnt.(u) in
          if cn >= 0 then cn
          else begin
            preds.(!preds_len) <- u;
            incr preds_len;
            old_cnt.(u) <- c;
            let cn = alloc_slot () in
            cval.(cn) <- 0;
            new_cnt.(u) <- cn;
            cn
          end
        in
        cval.(c) <- cval.(c) - 1;
        cval.(cn) <- cval.(cn) + 1;
        cnt_of_edge.(e) <- cn
      done
    in
    (* begin/end rather than [Obs.span]: a closure here would push every
       hot local (cval, cnt_of_edge, preds, the worklist...) into a
       closure environment and cost ~20% even with tracing off. *)
    Obs.begin_span "compressB.refine";
    (while !work_len > 0 do
      decr work_len;
      let xs = work.(!work_len) in
      queued.(xs) <- false;
      let sf = sb_first.(xs) and ssz = sb_size.(xs) in
      let b1 = Partition.block_of p (Partition.element_at p sf) in
      let s1 = Partition.block_size p b1 in
      if s1 < ssz then begin
        (* Compound: detach the smaller of the two leading P-blocks as its
           own super-block B (smaller-half rule). *)
        let b2 = Partition.block_of p (Partition.element_at p (sf + s1)) in
        let b =
          if s1 <= Partition.block_size p b2 then b1
          else begin
            Partition.rotate_adjacent p ~front:b1 ~back:b2;
            b2
          end
        in
        let bs = Partition.block_size p b in
        if Obs.metrics_on () then begin
          Obs.incr c_rounds;
          Obs.observe h_detach (float_of_int bs)
        end;
        let xn = !sb_count in
        incr sb_count;
        sb_first.(xn) <- sf;
        sb_size.(xn) <- bs;
        sb_of_blk.(b) <- xn;
        sb_first.(xs) <- sf + bs;
        sb_size.(xs) <- ssz - bs;
        enqueue xs;
        preds_len := 0;
        Partition.iter_block p b move_counts;
        Obs.add c_marks !preds_len;
        (* Three-way split: first on membership in E⁻¹(B)... *)
        for i = 0 to !preds_len - 1 do
          Partition.mark p preds.(i)
        done;
        Partition.split_marked p attach_split;
        (* ... then, within E⁻¹(B), on having no edge left into S \ B. *)
        for i = 0 to !preds_len - 1 do
          let u = preds.(i) in
          if cval.(old_cnt.(u)) = 0 then Partition.mark p u
        done;
        Partition.split_marked p attach_split;
        (* Recycle drained (u, S) slots and reset the per-round scratch. *)
        for i = 0 to !preds_len - 1 do
          let u = preds.(i) in
          let c = old_cnt.(u) in
          if cval.(c) = 0 then begin
            free.(!free_len) <- c;
            incr free_len
          end;
          new_cnt.(u) <- -1
        done
      end
    done) [@lint.hot_loop];
    Obs.end_span ();
    Partition.normalize_assignment (Partition.assignment p)
  end
