type t = {
  comp : int array; (* indexed node -> condensation node *)
  cond : Digraph.t;
  (* intervals.(i).(c) = (low, post) for condensation node c, traversal i *)
  intervals : (int * int) array array;
  (* Atomic: query runs inside parallel batch closures (Planner.eval_into,
     Reach_index.query_into), so a plain mutable field would drop
     concurrent increments. *)
  fallback_count : int Atomic.t;
}

let c_fallbacks = Obs.counter "grail.fallbacks"

(* Randomized post-order over the condensation: children are visited in a
   per-traversal random order; every node gets a post rank; low(v) is the
   minimum rank reachable from v (its own post included). *)
let label_once rng cond =
  let n = Digraph.n cond in
  let post = Array.make n (-1) in
  let low = Array.make n max_int in
  let next = ref 0 in
  let order = Array.init n Fun.id in
  (* shuffle root iteration order *)
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let shuffled_succ v =
    let base, start, len = Digraph.succ_slice cond v in
    let a = Array.init len (fun i -> base.{start + i}) in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  (* iterative DFS with explicit frames *)
  let visit root =
    if post.(root) < 0 then begin
      let frames = Stack.create () in
      Stack.push (root, shuffled_succ root, 0) frames;
      while not (Stack.is_empty frames) do
        let v, succs, i = Stack.pop frames in
        if i < Array.length succs then begin
          Stack.push (v, succs, i + 1) frames;
          let w = succs.(i) in
          if post.(w) < 0 then Stack.push (w, shuffled_succ w, 0) frames
          else if low.(w) < low.(v) then low.(v) <- low.(w)
        end
        else begin
          post.(v) <- !next;
          incr next;
          if post.(v) < low.(v) then low.(v) <- post.(v);
          (* fold into parent when present *)
          match Stack.top_opt frames with
          | Some (p, _, _) -> if low.(v) < low.(p) then low.(p) <- low.(v)
          | None -> ()
        end
      done
    end
  in
  Array.iter visit order;
  (* One more pass: low must be min over *all* children, including ones
     visited earlier from another root (cross edges).  Ascending SCC id is
     reverse topological order, so children settle first. *)
  for c = 0 to n - 1 do
    Digraph.iter_succ cond c (fun c' ->
        if low.(c') < low.(c) then low.(c) <- low.(c'))
  done;
  Array.init n (fun c -> (low.(c), post.(c)))

let build ?pool ?(traversals = 3) ?(seed = 0x6a11) g =
  Obs.span "grail.build" (fun () ->
      let pool = match pool with Some p -> p | None -> Pool.default () in
      let scc = Scc.compute g in
      let cond = Scc.condensation g scc in
      (* Each traversal draws from its own deterministically-derived stream,
         so the labelings are independent of domain count and of each other's
         evaluation order. *)
      let intervals =
        Pool.parallel_map pool
          (fun i -> label_once (Random.State.make [| seed; i |]) cond)
          (Array.init (Mono.imax 1 traversals) Fun.id)
      in
      { comp = scc.Scc.comp; cond; intervals; fallback_count = Atomic.make 0 })

let of_parts ~comp ~cond ~intervals =
  let k = Digraph.n cond in
  Array.iter
    (fun c ->
      if c < 0 || c >= k then
        invalid_arg "Grail.of_parts: comp entry out of range")
    comp;
  if Array.length intervals = 0 then
    invalid_arg "Grail.of_parts: need at least one traversal";
  Array.iter
    (fun iv ->
      if Array.length iv <> k then
        invalid_arg "Grail.of_parts: interval array length mismatch")
    intervals;
  { comp; cond; intervals; fallback_count = Atomic.make 0 }

let comp t = t.comp
let cond t = t.cond
let intervals t = t.intervals

(* Toplevel recursion rather than [Array.for_all (fun ...)]: containment
   runs on every query, and the predicate closure would be allocated each
   time. *)
let rec contained_from (ivss : (int * int) array array) cu cv i =
  i >= Array.length ivss
  ||
  let iv = ivss.(i) in
  let lu, pu = iv.(cu) and lv, pv = iv.(cv) in
  lu <= lv && pv <= pu && contained_from ivss cu cv (i + 1)

let contained t cu cv = contained_from t.intervals cu cv 0

let query t u v =
  let cu = t.comp.(u) and cv = t.comp.(v) in
  if cu = cv then true
  else if not (contained t cu cv) then false
  else begin
    (* Intervals say "maybe": confirm with a DFS pruned by the intervals. *)
    Obs.incr c_fallbacks;
    Atomic.incr t.fallback_count;
    let visited = Bitset.create (Digraph.n t.cond) in
    let rec dfs c =
      c = cv
      || ((not (Bitset.mem visited c))
         && begin
              Bitset.add visited c;
              let found = ref false in
              Digraph.iter_succ t.cond c (fun c' ->
                  if (not !found) && contained t c' cv then
                    if dfs c' then found := true);
              !found
            end)
    in
    dfs cu
  end

let memory_bytes t =
  (2 * 8 * Array.length t.intervals * Digraph.n t.cond)
  + (8 * Array.length t.comp)

let fallbacks t = Atomic.get t.fallback_count
