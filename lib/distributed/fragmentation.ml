type strategy = Hash | Contiguous | Bfs

type fragment = {
  id : int;
  graph : Digraph.t;
  to_global : int array;
  in_boundary : int array;
  out_boundary : int array;
}

type t = {
  original_n : int;
  fragments : fragment array;
  owner : int array;
  local_of : int array;
  cross_edges : (int * int) list;
}

let assign_hash n k = Array.init n (fun v -> v mod k)

let assign_contiguous n k =
  let per = max 1 ((n + k - 1) / k) in
  Array.init n (fun v -> min (k - 1) (v / per))

(* Greedy BFS growth: seed each fragment with an unassigned node, then grow
   fragments round-robin along edges until every node is owned. *)
let assign_bfs rng g k =
  let n = Digraph.n g in
  let owner = Array.make n (-1) in
  let queues = Array.init k (fun _ -> Queue.create ()) in
  let target = max 1 ((n + k - 1) / k) in
  let sizes = Array.make k 0 in
  let next_unassigned = ref 0 in
  let seed f =
    (* a random probe, then a linear fallback *)
    let probe = Random.State.int rng n in
    let v =
      if owner.(probe) < 0 then probe
      else begin
        while !next_unassigned < n && owner.(!next_unassigned) >= 0 do
          incr next_unassigned
        done;
        if !next_unassigned < n then !next_unassigned else -1
      end
    in
    if v >= 0 then begin
      owner.(v) <- f;
      sizes.(f) <- sizes.(f) + 1;
      Queue.add v queues.(f)
    end
  in
  for f = 0 to k - 1 do
    seed f
  done;
  let assigned = ref (Array.fold_left (fun a s -> a + s) 0 sizes) in
  while !assigned < n do
    let progressed = ref false in
    for f = 0 to k - 1 do
      if sizes.(f) < target && not (Queue.is_empty queues.(f)) then begin
        let v = Queue.pop queues.(f) in
        let grab w =
          if owner.(w) < 0 && sizes.(f) < target then begin
            owner.(w) <- f;
            sizes.(f) <- sizes.(f) + 1;
            incr assigned;
            progressed := true;
            Queue.add w queues.(f)
          end
        in
        Digraph.iter_succ g v grab;
        Digraph.iter_pred g v grab
      end
    done;
    if not !progressed then begin
      (* disconnected remainder or all queues drained: reseed the smallest
         fragment *)
      let smallest = ref 0 in
      for f = 1 to k - 1 do
        if sizes.(f) < sizes.(!smallest) then smallest := f
      done;
      let before = !assigned in
      seed !smallest;
      if
        Array.fold_left (fun a s -> a + s) 0 sizes = before
        (* nothing left to seed *)
      then assigned := n
      else incr assigned
    end
  done;
  owner

let make ?(seed = 1789) g ~fragments ~strategy =
  if fragments < 1 then invalid_arg "Fragmentation.make: fragments < 1";
  let n = Digraph.n g in
  let k = max 1 (min fragments (max 1 n)) in
  let rng = Random.State.make [| seed |] in
  let owner =
    if n = 0 then [||]
    else
      match strategy with
      | Hash -> assign_hash n k
      | Contiguous -> assign_contiguous n k
      | Bfs -> assign_bfs rng g k
  in
  (* local numbering per fragment *)
  let local_of = Array.make n (-1) in
  let members = Array.make k [] in
  for v = n - 1 downto 0 do
    members.(owner.(v)) <- v :: members.(owner.(v))
  done;
  let member_arrays = Array.map Array.of_list members in
  Array.iter
    (fun ms -> Array.iteri (fun i v -> local_of.(v) <- i) ms)
    member_arrays;
  let cross = ref [] in
  let fragments_arr =
    Array.init k (fun f ->
        let ms = member_arrays.(f) in
        let local_edges = ref [] in
        Array.iteri
          (fun i v ->
            Digraph.iter_succ g v (fun w ->
                if owner.(w) = f then local_edges := (i, local_of.(w)) :: !local_edges))
          ms;
        let labels = Array.map (Digraph.label g) ms in
        let graph = Digraph.make ~n:(Array.length ms) ~labels !local_edges in
        { id = f; graph; to_global = ms; in_boundary = [||]; out_boundary = [||] })
  in
  (* cross edges and boundaries *)
  let in_b = Array.init k (fun _ -> Hashtbl.create 16) in
  let out_b = Array.init k (fun _ -> Hashtbl.create 16) in
  Digraph.iter_edges g (fun u v ->
      if owner.(u) <> owner.(v) then begin
        cross := (u, v) :: !cross;
        Hashtbl.replace out_b.(owner.(u)) local_of.(u) ();
        Hashtbl.replace in_b.(owner.(v)) local_of.(v) ()
      end);
  let sorted tbl =
    let a = Array.of_seq (Hashtbl.to_seq_keys tbl) in
    Array.sort compare a;
    a
  in
  let fragments_arr =
    Array.map
      (fun fr ->
        {
          fr with
          in_boundary = sorted in_b.(fr.id);
          out_boundary = sorted out_b.(fr.id);
        })
      fragments_arr
  in
  {
    original_n = n;
    fragments = fragments_arr;
    owner;
    local_of;
    cross_edges = !cross;
  }

let edge_cut t = List.length t.cross_edges

let validate t ~original =
  let fail fmt = Format.kasprintf failwith fmt in
  let n = Digraph.n original in
  if t.original_n <> n then fail "node count mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun fr ->
      Array.iteri
        (fun i v ->
          if seen.(v) then fail "node %d owned twice" v;
          seen.(v) <- true;
          if t.owner.(v) <> fr.id then fail "owner mismatch for %d" v;
          if t.local_of.(v) <> i then fail "local id mismatch for %d" v;
          if Digraph.label fr.graph i <> Digraph.label original v then
            fail "label mismatch for %d" v)
        fr.to_global)
    t.fragments;
  Array.iteri (fun v s -> if not s then fail "node %d unowned" v) seen;
  (* every original edge appears exactly once: locally or as a cross edge *)
  let local_count =
    Array.fold_left (fun acc fr -> acc + Digraph.m fr.graph) 0 t.fragments
  in
  if local_count + List.length t.cross_edges <> Digraph.m original then
    fail "edge accounting broken";
  List.iter
    (fun (u, v) ->
      if t.owner.(u) = t.owner.(v) then fail "cross edge (%d,%d) not cross" u v;
      if not (Digraph.mem_edge original u v) then
        fail "phantom cross edge (%d,%d)" u v)
    t.cross_edges
