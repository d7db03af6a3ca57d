type t = {
  comp : int array; (* indexed node -> condensation node *)
  post : int array; (* post rank per condensation node *)
  intervals : (int * int) array array;
      (* per condensation node: disjoint sorted [lo, hi] covering its
         reflexive descendant set's post ranks *)
}

(* merge two disjoint-sorted interval lists, coalescing overlaps *)
let merge a b =
  let la = Array.length a and lb = Array.length b in
  let out = ref [] in
  let push ((lo, hi) as iv) =
    match !out with
    | (lo', hi') :: rest when lo <= hi' + 1 ->
        out := (lo', Mono.imax hi hi') :: rest
    | _ -> out := iv :: !out
  in
  let i = ref 0 and j = ref 0 in
  while !i < la || !j < lb do
    if !j >= lb || (!i < la && fst a.(!i) <= fst b.(!j)) then begin
      push a.(!i);
      incr i
    end
    else begin
      push b.(!j);
      incr j
    end
  done;
  Array.of_list (List.rev !out)

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
  (* interval sets in reverse topological order (ascending SCC id visits
     successors first) *)
  let intervals = Array.make k [||] in
  for c = 0 to k - 1 do
    (* the tree interval of c: [min post of its tree subtree, post c]; with
       the simple DFS above the subtree of c occupies a contiguous post
       range ending at post c.  We recover the low end from tree children:
       a child w is a tree child iff its subtree was entered from c, which
       the post ranges already encode — so instead of tracking the forest
       explicitly, start from the singleton [post c, post c] and merge all
       successors' sets; coalescing rebuilds the contiguous ranges. *)
    let own = [| (post.(c), post.(c)) |] in
    let acc = ref own in
    Digraph.iter_succ cond c (fun w -> acc := merge !acc intervals.(w));
    intervals.(c) <- !acc
  done;
  { comp = scc.Scc.comp; post; intervals }

let of_parts ~comp ~post ~intervals =
  let k = Array.length post in
  if Array.length intervals <> k then
    invalid_arg "Tree_cover.of_parts: post/intervals length mismatch";
  Array.iter
    (fun c ->
      if c < 0 || c >= k then
        invalid_arg "Tree_cover.of_parts: comp entry out of range")
    comp;
  { comp; post; intervals }

let comp t = t.comp
let post t = t.post
let intervals t = t.intervals

(* Binary search for an interval containing [target].  Toplevel recursion
   instead of refs + while: query is the per-query hot path and refs would
   allocate on every call. *)
let rec search ivs target lo hi =
  lo <= hi
  &&
  let mid = (lo + hi) / 2 in
  let a, b = ivs.(mid) in
  if target < a then search ivs target lo (mid - 1)
  else if target > b then search ivs target (mid + 1) hi
  else true

let[@lint.hot_loop] query t u v =
  let cu = t.comp.(u) and cv = t.comp.(v) in
  cu = cv
  ||
  let target = t.post.(cv) in
  let ivs = t.intervals.(cu) in
  search ivs target 0 (Array.length ivs - 1)

let interval_count t =
  Array.fold_left (fun acc ivs -> acc + Array.length ivs) 0 t.intervals

let memory_bytes t =
  (16 * interval_count t)
  + (8 * Array.length t.post)
  + (8 * Array.length t.comp)

