let group_by_signature signatures =
  let tbl = Hashtbl.create (2 * Array.length signatures + 1) in
  let count = ref 0 in
  let class_of =
    Array.map
      (fun key ->
        match Hashtbl.find_opt tbl key with
        | Some c -> c
        | None ->
            let c = !count in
            incr count;
            Hashtbl.replace tbl key c;
            c)
      signatures
  in
  (* An empty signature array has zero classes, not one: [!count] is only
     ever incremented on a fresh key, so it is already exact. *)
  (class_of, !count)

let ancestor_sets g = Transitive.descendant_sets (Digraph.reverse g)

let compute_naive g =
  let n = Digraph.n g in
  if n = 0 then { Reach_equiv.count = 0; class_of = [||]; cyclic = [||] }
  else begin
    let desc = Transitive.descendant_sets g in
    let anc = ancestor_sets g in
    let keys =
      Array.init n (fun v -> (Bitset.to_list anc.(v), Bitset.to_list desc.(v)))
    in
    let class_of, count = group_by_signature keys in
    let cyclic = Array.make count false in
    for v = 0 to n - 1 do
      if Bitset.mem desc.(v) v then cyclic.(class_of.(v)) <- true
    done;
    { count; class_of; cyclic }
  end
