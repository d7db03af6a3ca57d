let compress_of_partition g assignment =
  let n = Digraph.n g in
  if Array.length assignment <> n then
    invalid_arg "Compress_bisim: assignment length mismatch";
  if n = 0 then Compressed.v ~graph:Digraph.empty ~node_map:[||]
  else begin
    let first = Partition.normalize_assignment assignment in
    let k = Array.fold_left (fun acc b -> Mono.imax acc (b + 1)) 0 first in
    let first_labels = Array.make k 0 in
    Array.iteri (fun v b -> first_labels.(b) <- Digraph.label g v) first;
    (* Renumber the classes in ascending label order, by first occurrence
       within a label: a stable counting sort, so each label's
       hypernodes form one id range of Gr. *)
    let nl = Digraph.label_count g in
    let start = Array.make (nl + 1) 0 in
    Array.iter (fun l -> start.(l + 1) <- start.(l + 1) + 1) first_labels;
    for l = 1 to nl do
      start.(l) <- start.(l) + start.(l - 1)
    done;
    let renum = Array.make k 0 and labels = Array.make k 0 in
    Array.iteri
      (fun b l ->
        renum.(b) <- start.(l);
        labels.(start.(l)) <- l;
        start.(l) <- start.(l) + 1)
      first_labels;
    let assignment = Array.map (fun b -> renum.(b)) first in
    Compressed.v ~node_map:assignment
      ~graph:
        (Digraph.quotient ~labels ~self_loops:true ~class_of:assignment ~k g)
  end

let compress ?pool g =
  Obs.span "compressB" (fun () ->
      let part =
        Obs.span "compressB.partition" (fun () ->
            Bisimulation.max_bisimulation ?pool g)
      in
      Obs.span "compressB.quotient" (fun () -> compress_of_partition g part))

type scratch = {
  c : Compressed.t;
  sim : Bounded_sim.scratch;  (* the match on Gr, rows over Vr *)
  mutable labels : int array;  (* fv(u) of the last pattern answered *)
  mutable counts : int array;  (* its row lengths, after P *)
  mutable pairs : Bytes.t;  (* (v, R(v)) label-major, built on first use *)
  mutable block : int array;  (* label l's pairs: block.(l) .. block.(l + 1) - 1 *)
  mutable mark : Bitset.t;  (* the expanding path's row over V *)
}

let scratch c =
  {
    c;
    sim = Bounded_sim.scratch (Compressed.graph c);
    labels = [||];
    counts = [||];
    pairs = Bytes.empty;
    block = [||];
    mark = Bitset.create 0;
  }

(* V sorted by the label of each node's hypernode, then by id, each with
   its hypernode, as u32 pairs ([Bitset.write_selected]): one counting
   sort.  Every hypernode matched for pattern node u carries fv(u), on
   any Gr, so row u is the nodes of fv(u)'s block whose hypernode is
   matched.  The ids are u32 on the wire too. *)
let build_pairs s =
  let gr = Compressed.graph s.c and n = Compressed.original_n s.c in
  if n > 0xFFFF_FFFF then invalid_arg "Compress_bisim: |V| beyond u32 ids";
  let block = Array.make (Digraph.label_count gr + 1) 0 in
  for v = 0 to n - 1 do
    let l = Digraph.label gr (Compressed.hypernode s.c v) in
    block.(l + 1) <- block.(l + 1) + 1
  done;
  for l = 1 to Array.length block - 1 do
    block.(l) <- block.(l) + block.(l - 1)
  done;
  let fill = Array.copy block and pairs = Bytes.create (8 * n) in
  for v = 0 to n - 1 do
    let h = Compressed.hypernode s.c v in
    let l = Digraph.label gr h in
    let j = fill.(l) in
    Bytes.set_int32_le pairs (8 * j) (Int32.of_int v);
    Bytes.set_int32_le pairs ((8 * j) + 4) (Int32.of_int h);
    fill.(l) <- j + 1
  done;
  s.block <- block;
  s.pairs <- pairs

let answer_into s p =
  let np = Pattern.node_count p and have = Array.length s.counts in
  (* As in [Bounded_sim.match_into]: a wider pattern's cells are dropped
     at the next query. *)
  let keep = Mono.imax np Bounded_sim.steady_sets in
  if have < np || have > keep then begin
    s.counts <- Array.make keep 0;
    s.labels <- Array.make keep 0
  end;
  Bounded_sim.match_into s.sim p
  &&
  let off = s.c.Compressed.member_off in
  if Array.length s.block = 0 then build_pairs s;
  (* The labels are copied, not the pattern kept: a pointer from the
     scratch would promote each frame's freshly decoded pattern out of
     the minor heap. *)
  for u = 0 to np - 1 do
    s.labels.(u) <- Pattern.label p u;
    s.counts.(u) <- Bitset.weight (Bounded_sim.matched s.sim u) ~off
  done;
  true

let row_length s u = s.counts.(u)

(* Measured on 5,000 and 50,000 ids (DESIGN §2.3): the scan costs about
   1.2 ns per entry of the block; the expanding path about 3.3 ns per id
   written plus 2.5 ns per word of the bitset over V it clears and
   walks.  So a row scans when its block is at most three times its
   length plus twice those words, 63 ids to a word. *)
let scans s u =
  let l = s.labels.(u) in
  l >= 0
  && l < Array.length s.block - 1
  && s.block.(l + 1) - s.block.(l)
     <= (3 * s.counts.(u)) + (2 * (Compressed.original_n s.c / 63))

let write_row s u b pos =
  let sel = Bounded_sim.matched s.sim u and count = s.counts.(u) in
  if scans s u then begin
    let l = s.labels.(u) in
    Bitset.write_selected sel ~pairs:s.pairs ~lo:s.block.(l)
      ~hi:s.block.(l + 1) ~count b pos
  end
  else begin
    if Bitset.universe_size s.mark <> Compressed.original_n s.c then
      s.mark <- Bitset.create (Compressed.original_n s.c)
    else Bitset.clear s.mark;
    Compressed.expand_into s.c sel s.mark;
    Bitset.write_u32_le s.mark b pos
  end

(* The match on Gr, then P through one bitset over V, read out per row:
   [expand_result] would first copy each match row out of its bitset
   and back in. *)
let answer p c =
  let sim = Bounded_sim.scratch (Compressed.graph c) in
  if Bounded_sim.match_into sim p then begin
    let mark = Bitset.create (Compressed.original_n c) in
    Some
      (Array.init (Pattern.node_count p) (fun u ->
           Bitset.clear mark;
           Compressed.expand_into c (Bounded_sim.matched sim u) mark;
           Bitset.to_array mark))
  end
  else None

let answer_boolean p c =
  Bounded_sim.eval_boolean p (Compressed.graph c)

let answer_rpq r c =
  Compressed.expand_nodes c
    (Bitset.to_array (Rpq.matches r (Compressed.graph c)))
