type t = {
  graph : Digraph.t;
  node_map : int array;
  member_off : int array;
  member_ids : int array;
}

let v ~graph ~node_map =
  let nr = Digraph.n graph in
  let off = Array.make (nr + 1) 0 in
  Array.iter
    (fun h ->
      if h < 0 || h >= nr then
        invalid_arg "Compressed.v: hypernode out of range";
      off.(h + 1) <- off.(h + 1) + 1)
    node_map;
  for h = 0 to nr - 1 do
    if off.(h + 1) = 0 then
      invalid_arg (Printf.sprintf "Compressed.v: hypernode %d has no member" h);
    off.(h + 1) <- off.(h + 1) + off.(h)
  done;
  let ids = Array.make (Array.length node_map) 0 in
  let fill = Array.sub off 0 nr in
  Array.iteri
    (fun u h ->
      ids.(fill.(h)) <- u;
      fill.(h) <- fill.(h) + 1)
    node_map;
  (* node ids ascend, so each hypernode's slice is already sorted. *)
  { graph; node_map = Array.copy node_map; member_off = off; member_ids = ids }

let graph t = t.graph
let hypernode t u = t.node_map.(u)

let member_slice t h =
  let start = t.member_off.(h) in
  (t.member_ids, start, t.member_off.(h + 1) - start)

let iter_members t h f =
  for i = t.member_off.(h) to t.member_off.(h + 1) - 1 do
    f t.member_ids.(i)
  done

let original_n t = Array.length t.node_map
let size t = Digraph.size t.graph

let ratio t ~original =
  let g = Digraph.size original in
  if g = 0 then 1.0 else float_of_int (size t) /. float_of_int g

(* P marks the members of a row's hypernodes in a bitset over V and
   reads the bits back in order: O(|V|/63 + |output|) per row, no sort.
   Hypernodes are disjoint, so no dedup is needed. *)
let expand_into t hyper mark =
  Bitset.union_rows ~into:mark ~off:t.member_off ~ids:t.member_ids hyper

(* The array rows of [expand_nodes] and [expand_result] go through the
   same marking, by way of a bitset of hypernodes over Vr ([hyper]);
   both sets are empty again on return. *)
let expand_row t ~hyper ~mark hypernodes =
  Bitset.add_slice hyper hypernodes 0 (Array.length hypernodes);
  expand_into t hyper mark;
  Bitset.clear hyper;
  let out = Bitset.to_array mark in
  Bitset.clear mark;
  out

let expand_nodes t hypernodes =
  expand_row t
    ~hyper:(Bitset.create (Digraph.n t.graph))
    ~mark:(Bitset.create (original_n t))
    hypernodes

let expand_result t = function
  | None -> None
  | Some rows ->
      let hyper = Bitset.create (Digraph.n t.graph)
      and mark = Bitset.create (original_n t) in
      Some (Array.map (expand_row t ~hyper ~mark) rows)
