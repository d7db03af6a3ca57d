type t = {
  graph : Digraph.t;
  node_map : int array;
  members : int array array;
}

let v ~graph ~node_map =
  let nr = Digraph.n graph in
  let counts = Array.make nr 0 in
  Array.iter
    (fun h ->
      if h < 0 || h >= nr then
        invalid_arg "Compressed.v: hypernode out of range";
      counts.(h) <- counts.(h) + 1)
    node_map;
  Array.iteri
    (fun h c ->
      if c = 0 then
        invalid_arg (Printf.sprintf "Compressed.v: hypernode %d has no member" h))
    counts;
  let members = Array.init nr (fun h -> Array.make counts.(h) 0) in
  let fill = Array.make nr 0 in
  Array.iteri
    (fun u h ->
      members.(h).(fill.(h)) <- u;
      fill.(h) <- fill.(h) + 1)
    node_map;
  (* node ids ascend, so each members.(h) is already sorted. *)
  { graph; node_map = Array.copy node_map; members }

let graph t = t.graph
let hypernode t u = t.node_map.(u)
let members t h = t.members.(h)
let original_n t = Array.length t.node_map
let size t = Digraph.size t.graph

let ratio t ~original =
  let g = Digraph.size original in
  if g = 0 then 1.0 else float_of_int (size t) /. float_of_int g

(* P marks the members of a row's hypernodes in one bitset over V and
   reads the bits back in order: O(|V|/63 + |output|) per row, no sort.
   Hypernodes are disjoint, so no dedup is needed; a hypernode listed
   twice only marks the same bits again.  [mark] is empty on entry and
   on exit. *)
let expand_row t mark hypernodes =
  Array.iter (fun h -> Array.iter (Bitset.add mark) t.members.(h)) hypernodes;
  let out = Bitset.to_array mark in
  Bitset.clear mark;
  out

let expand_nodes t hypernodes =
  expand_row t (Bitset.create (original_n t)) hypernodes

let expand_result t = function
  | None -> None
  | Some rows ->
      let mark = Bitset.create (original_n t) in
      Some (Array.map (expand_row t mark) rows)

let pp ppf t =
  Format.fprintf ppf "@[<v>compressed |Vr|=%d |Er|=%d of |V|=%d@,%a@]"
    (Digraph.n t.graph) (Digraph.m t.graph) (original_n t) Digraph.pp t.graph
