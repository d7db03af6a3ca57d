(* Valmari-style refinable partition: one permutation of the universe grouped
   by block, per-block (first, marked, size) index triples, and flat stacks
   for the touched/split bookkeeping.  Everything is preallocated at
   [create]: a universe of n nodes can never hold more than n blocks, so all
   per-block arrays are sized max(1, n) up front and [mark] / [split_marked]
   run with zero allocation. *)

type t = {
  n : int;
  elems : int array; (* permutation of 0..n-1, grouped by block *)
  pos : int array; (* pos.(v) = index of v in elems *)
  node_blk : int array;
  first : int array; (* first.(b) = start of block b in elems *)
  size : int array;
  marked : int array; (* number of marked members, at block front *)
  mutable count : int; (* number of blocks *)
  touched : int array; (* stack of blocks with >= 1 mark *)
  mutable touched_len : int;
  split_old : int array; (* split pairs recorded by split_marked *)
  split_new : int array;
}

let block_capacity n = Mono.imax 1 n

let create n =
  if n < 0 then invalid_arg "Partition.create: negative size";
  let cap = block_capacity n in
  let first = Array.make cap 0 and size = Array.make cap 0 in
  size.(0) <- n;
  {
    n;
    elems = Array.init n Fun.id;
    pos = Array.init n Fun.id;
    node_blk = Array.make n 0;
    first;
    size;
    marked = Array.make cap 0;
    count = 1;
    touched = Array.make cap 0;
    touched_len = 0;
    split_old = Array.make cap 0;
    split_new = Array.make cap 0;
  }

let create_with keys =
  let n = Array.length keys in
  let cap = block_capacity n in
  (* Dense block id per distinct key, ordered by first appearance. *)
  let tbl = Mono.Itbl.create (2 * n + 1) in
  let node_blk = Array.make n 0 in
  let count = ref 0 in
  for v = 0 to n - 1 do
    let b =
      match Mono.Itbl.find_opt tbl keys.(v) with
      | Some b -> b
      | None ->
          let b = !count in
          incr count;
          Mono.Itbl.replace tbl keys.(v) b;
          b
    in
    node_blk.(v) <- b
  done;
  let count = Mono.imax 1 !count in
  let size = Array.make cap 0 in
  Array.iter (fun b -> size.(b) <- size.(b) + 1) node_blk;
  let first = Array.make cap 0 in
  for b = 1 to count - 1 do
    first.(b) <- first.(b - 1) + size.(b - 1)
  done;
  let fill = Array.make cap 0 in
  Array.blit first 0 fill 0 count;
  let elems = Array.make n 0 and pos = Array.make n 0 in
  for v = 0 to n - 1 do
    let b = node_blk.(v) in
    elems.(fill.(b)) <- v;
    pos.(v) <- fill.(b);
    fill.(b) <- fill.(b) + 1
  done;
  {
    n;
    elems;
    pos;
    node_blk;
    first;
    size;
    marked = Array.make cap 0;
    count;
    touched = Array.make cap 0;
    touched_len = 0;
    split_old = Array.make cap 0;
    split_new = Array.make cap 0;
  }

let universe_size p = p.n
let block_count p = p.count
let block_of p v = p.node_blk.(v)
let block_size p b = p.size.(b)
let element_at p i = p.elems.(i)

let[@lint.hot_loop] iter_block p b f =
  let fst = p.first.(b) in
  for i = fst to fst + p.size.(b) - 1 do
    f p.elems.(i)
  done

let members p b =
  let acc = ref [] in
  iter_block p b (fun v -> acc := v :: !acc);
  List.sort Mono.icompare !acc

let[@lint.hot_loop] swap p i j =
  if i <> j then begin
    let a = p.elems.(i) and b = p.elems.(j) in
    p.elems.(i) <- b;
    p.elems.(j) <- a;
    p.pos.(a) <- j;
    p.pos.(b) <- i
  end

let[@lint.hot_loop] rotate_adjacent p ~front ~back =
  let sf = p.first.(front) and s1 = p.size.(front) and s2 = p.size.(back) in
  if p.first.(back) <> sf + s1 then
    invalid_arg "Partition.rotate_adjacent: blocks not adjacent";
  if s2 > s1 then invalid_arg "Partition.rotate_adjacent: back larger than front";
  if p.marked.(front) <> 0 || p.marked.(back) <> 0 then
    invalid_arg "Partition.rotate_adjacent: blocks have pending marks";
  (* Swap each of [back]'s s2 members pairwise with the leading s2 members
     of [front]: both blocks stay contiguous, [back] now leads.  O(s2). *)
  for i = 0 to s2 - 1 do
    swap p (sf + i) (sf + s1 + i)
  done;
  p.first.(back) <- sf;
  p.first.(front) <- sf + s2

let[@lint.hot_loop] mark p v =
  let b = p.node_blk.(v) in
  let mark_end = p.first.(b) + p.marked.(b) in
  if p.pos.(v) >= mark_end then begin
    (* Not yet marked: swap into the marked prefix. *)
    if p.marked.(b) = 0 then begin
      p.touched.(p.touched_len) <- b;
      p.touched_len <- p.touched_len + 1
    end;
    swap p p.pos.(v) mark_end;
    p.marked.(b) <- p.marked.(b) + 1
  end

let marked_size p b = p.marked.(b)

(* Drain the touched stack, recording split pairs into split_old/split_new
   and returning how many there are.  The count threads through toplevel
   recursion instead of a ref so the drain stays allocation-free — this
   runs twice per round of the compressB refine loop. *)
let rec drain_touched p nsplits =
  if p.touched_len = 0 then nsplits
  else begin
    p.touched_len <- p.touched_len - 1;
    let b = p.touched.(p.touched_len) in
    let mk = p.marked.(b) in
    p.marked.(b) <- 0;
    if mk > 0 && mk < p.size.(b) then begin
      let nb = p.count in
      p.count <- p.count + 1;
      p.first.(nb) <- p.first.(b);
      p.size.(nb) <- mk;
      p.marked.(nb) <- 0;
      p.first.(b) <- p.first.(b) + mk;
      p.size.(b) <- p.size.(b) - mk;
      for i = p.first.(nb) to p.first.(nb) + mk - 1 do
        p.node_blk.(p.elems.(i)) <- nb
      done;
      p.split_old.(nsplits) <- b;
      p.split_new.(nsplits) <- nb;
      drain_touched p (nsplits + 1)
    end
    else drain_touched p nsplits
  end

let[@lint.hot_loop] split_marked p f =
  let nsplits = drain_touched p 0 in
  for i = 0 to nsplits - 1 do
    f ~old_block:p.split_old.(i) ~new_block:p.split_new.(i)
  done

let assignment p = Array.copy p.node_blk

let normalize_assignment a =
  let tbl = Mono.Itbl.create (2 * Array.length a + 1) in
  let next = ref 0 in
  Array.map
    (fun b ->
      match Mono.Itbl.find_opt tbl b with
      | Some d -> d
      | None ->
          let d = !next in
          incr next;
          Mono.Itbl.replace tbl b d;
          d)
    a

let equivalent a b =
  Array.length a = Array.length b
  && normalize_assignment a = normalize_assignment b
