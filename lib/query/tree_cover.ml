type t = {
  comp : int array; (* indexed node -> condensation node *)
  post : int array; (* post rank per condensation node *)
  offsets : int array;
      (* k + 1 row starts, in intervals: row c is intervals
         offsets.(c) .. offsets.(c + 1) - 1 *)
  pairs : int array;
      (* the rows back to back, interval i at 2i (lo) and 2i + 1 (hi); a
         row is the ascending, disjoint runs of post ranks that its
         condensation node reaches, itself included *)
}

(* [merge a b] is the union of two rows (interleaved lo, hi words, each
   ascending and disjoint), coalescing overlapping and adjacent
   intervals. *)
let merge a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let n = ref 0 in
  let push lo hi =
    if !n > 0 && lo <= out.(!n - 1) + 1 then
      out.(!n - 1) <- Mono.imax hi out.(!n - 1)
    else begin
      out.(!n) <- lo;
      out.(!n + 1) <- hi;
      n := !n + 2
    end
  in
  let i = ref 0 and j = ref 0 in
  while !i < la || !j < lb do
    if !j >= lb || (!i < la && a.(!i) <= b.(!j)) then begin
      push a.(!i) a.(!i + 1);
      i := !i + 2
    end
    else begin
      push b.(!j) b.(!j + 1);
      j := !j + 2
    end
  done;
  Array.sub out 0 !n

let build g =
  let scc = Scc.compute g in
  let cond = Scc.condensation g scc in
  let k = Digraph.n cond in
  (* spanning forest post-order: DFS over the condensation following tree
     children in adjacency order *)
  (* Dense CSR justified: the iterative DFS keeps per-frame cursors into
     the adjacency by absolute edge index across pushes and pops.  The
     condensation is freshly built on the CSR store, so these are its own
     arrays and nothing is copied. *)
  let cond_off, cond_adj = Digraph.out_csr cond (* lint: allow CSR02 *) in
  let post = Array.make k (-1) in
  let next = ref 0 in
  let frames = Stack.create () in
  let visit root =
    if post.(root) < 0 then begin
      post.(root) <- -2 (* on stack *);
      Stack.push (root, 0) frames;
      while not (Stack.is_empty frames) do
        let v, i = Stack.pop frames in
        if cond_off.{v} + i < cond_off.{v + 1} then begin
          Stack.push (v, i + 1) frames;
          let w = cond_adj.{cond_off.{v} + i} in
          if post.(w) = -1 then begin
            post.(w) <- -2;
            Stack.push (w, 0) frames
          end
        end
        else begin
          post.(v) <- !next;
          incr next
        end
      done
    end
  in
  for v = k - 1 downto 0 do
    visit v
  done;
  (* Rows in reverse topological order (ascending SCC id visits
     successors first).  The tree interval of c is [min post of its tree
     subtree, post c]; with the simple DFS above the subtree of c
     occupies a contiguous post range ending at post c.  Instead of
     tracking the forest explicitly, start from the singleton
     [post c, post c] and merge all successors' rows; coalescing
     rebuilds the contiguous ranges.  The rows are concatenated once,
     at their final size. *)
  let rows = Array.make k [||] in
  for c = 0 to k - 1 do
    let acc = ref [| post.(c); post.(c) |] in
    Digraph.iter_succ cond c (fun w -> acc := merge !acc rows.(w));
    rows.(c) <- !acc
  done;
  let offsets = Array.make (k + 1) 0 in
  Array.iteri
    (fun c row -> offsets.(c + 1) <- offsets.(c) + (Array.length row / 2))
    rows;
  {
    comp = scc.Scc.comp;
    post;
    offsets;
    pairs = Array.concat (Array.to_list rows);
  }

let of_parts ~comp ~post ~offsets ~pairs =
  let k = Array.length post in
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Tree_cover.of_parts: " ^ m)) fmt
  in
  if
    Array.length offsets <> k + 1
    || offsets.(0) <> 0
    || 2 * offsets.(k) <> Array.length pairs
  then fail "row offsets disagree with the post ranks or the intervals";
  Array.iter
    (fun c -> if c < 0 || c >= k then fail "comp entry %d out of range" c)
    comp;
  let seen = Bytes.make k '\000' in
  Array.iter
    (fun p ->
      if p < 0 || p >= k || Bytes.get seen p <> '\000' then
        fail "post ranks are not a permutation of [0, %d)" k;
      Bytes.set seen p '\001')
    post;
  (* [query]'s search needs every row nonempty, ascending and disjoint,
     and holding its own post rank *)
  for c = 0 to k - 1 do
    if offsets.(c + 1) <= offsets.(c) || offsets.(c + 1) > offsets.(k) then
      fail "row %d is empty or past the intervals" c;
    let own = ref false and prev = ref (-1) in
    for i = offsets.(c) to offsets.(c + 1) - 1 do
      let lo = pairs.(2 * i) and hi = pairs.((2 * i) + 1) in
      if lo <= !prev || hi < lo || hi >= k then
        fail "row %d is not ascending, disjoint intervals within [0, %d)" c k;
      if lo <= post.(c) && post.(c) <= hi then own := true;
      prev := hi
    done;
    if not !own then fail "row %d does not hold its own post rank" c
  done;
  { comp; post; offsets; pairs }

let comp t = t.comp
let post t = t.post
let offsets t = t.offsets
let pairs t = t.pairs

(* The row's last interval with [lo <= target], or its first when there
   is none: a lower-bound search that halves [n] whatever the comparison
   says, so the step is a mask, not a branch.  Toplevel recursion, which
   compiles to a loop, rather than refs, which ALLOC02 counts as
   allocations. *)
let rec last_le (pairs : int array) target base n =
  if n <= 1 then base
  else
    let half = n lsr 1 in
    let take = -Bool.to_int (pairs.(2 * (base + half)) <= target) in
    last_le pairs target (base + (half land take)) (n - half)

let[@lint.hot_loop] [@inline] query t u v =
  let target = t.post.(t.comp.(v)) in
  let c = t.comp.(u) in
  let start = t.offsets.(c) in
  let i = 2 * last_le t.pairs target start (t.offsets.(c + 1) - start) in
  (* lo <= target <= hi, as one sign test *)
  (target - t.pairs.(i)) lor (t.pairs.(i + 1) - target) >= 0

let interval_count t = t.offsets.(Array.length t.post)

let memory_bytes t =
  8
  * (Array.length t.pairs + Array.length t.offsets + Array.length t.post
   + Array.length t.comp)
