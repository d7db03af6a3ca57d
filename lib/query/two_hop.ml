type t = {
  lout : int array array; (* sorted hop ids reachable from v *)
  lin : int array array; (* sorted hop ids reaching v *)
}

(* Toplevel recursion, not a local [let rec]: a local recursive helper
   captures its environment and is allocated on every call, and query
   runs tens of millions of times per second. *)
let rec intersect_from (a : int array) (b : int array) i j =
  i < Array.length a
  && j < Array.length b
  && (a.(i) = b.(j)
     ||
     if a.(i) < b.(j) then intersect_from a b (i + 1) j
     else intersect_from a b i (j + 1))

let sorted_intersects a b = intersect_from a b 0 0

let rec array_mem_from (a : int array) x i =
  i < Array.length a && (a.(i) = x || array_mem_from a x (i + 1))

let[@lint.hot_loop] query t u w =
  u = w
  || sorted_intersects t.lout.(u) t.lin.(w)
  || array_mem_from t.lout.(u) w 0
  || array_mem_from t.lin.(w) u 0

let build g =
  let n = Digraph.n g in
  let order = Array.init n Fun.id in
  let degree v = Digraph.out_degree g v + Digraph.in_degree g v in
  Array.sort (fun a b -> compare (degree b) (degree a)) order;
  let lout = Array.make n [] and lin = Array.make n [] in
  (* During construction, labels are reversed lists of landmark ranks; the
     pruning test uses the partial labels built so far. *)
  let rank = Array.make n 0 in
  Array.iteri (fun r v -> rank.(v) <- r) order;
  let lists_intersect a b =
    List.exists (fun x -> List.exists (fun y -> x = y) b) a
  in
  let covered u w =
    (* Does the current partial labeling already answer u ⇝ w? *)
    lists_intersect lout.(u) lin.(w)
  in
  let visited = Bitset.create n in
  let bfs_from hop ~forward =
    Bitset.clear visited;
    let q = Queue.create () in
    Queue.add hop q;
    Bitset.add visited hop;
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      let expand y =
        if not (Bitset.mem visited y) then begin
          Bitset.add visited y;
          (* Prune: if the labeling already covers (hop, y), neither y nor
             anything beyond it through y needs this hop. *)
          let already =
            if forward then covered hop y else covered y hop
          in
          if not already then begin
            if forward then lin.(y) <- rank.(hop) :: lin.(y)
            else lout.(y) <- rank.(hop) :: lout.(y);
            Queue.add y q
          end
        end
      in
      if forward then Digraph.iter_succ g x expand
      else Digraph.iter_pred g x expand
    done
  in
  Array.iter
    (fun hop ->
      (* The hop labels itself implicitly (query handles u = w and direct
         hop hits). *)
      lout.(hop) <- rank.(hop) :: lout.(hop);
      lin.(hop) <- rank.(hop) :: lin.(hop);
      bfs_from hop ~forward:true;
      bfs_from hop ~forward:false)
    order;
  let finalize label_of_rank lists =
    Array.map
      (fun l ->
        let a = Array.of_list (List.map label_of_rank l) in
        Array.sort Mono.icompare a;
        a)
      lists
  in
  (* Convert ranks back to node ids but keep rank order irrelevant: sorted
     node ids make the merge-intersection valid. *)
  let of_rank r = order.(r) in
  { lout = finalize of_rank lout; lin = finalize of_rank lin }

let of_labels ~lout ~lin =
  if Array.length lout <> Array.length lin then
    invalid_arg "Two_hop.of_labels: lout/lin length mismatch";
  { lout; lin }

let labels t = (t.lout, t.lin)

let entry_count t =
  let sum = Array.fold_left (fun acc a -> acc + Array.length a) 0 in
  sum t.lout + sum t.lin

let memory_bytes t =
  (* 8 bytes per entry + 3 words of header per array + the two spines. *)
  let arrays = Array.length t.lout + Array.length t.lin in
  (8 * entry_count t) + (24 * arrays) + (8 * 2 * arrays)
