type bound = Bounded of int | Unbounded

type t = {
  n : int;
  labels : int array;
  edges : (int * int * bound) list;
  out_edges : (int * bound) list array;
  in_edges : (int * bound) list array;
  topo : int array option;
}

(* Kahn's algorithm: the pattern nodes with every parent before its
   children, or [None] when the pattern has a cycle (a self-loop is one). *)
let topo_sort n out_edges in_edges =
  let indeg = Array.map List.length in_edges in
  let order = Array.make n 0 and tail = ref 0 in
  let push u =
    order.(!tail) <- u;
    incr tail
  in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then push u
  done;
  let head = ref 0 in
  while !head < !tail do
    List.iter
      (fun (u', _) ->
        indeg.(u') <- indeg.(u') - 1;
        if indeg.(u') = 0 then push u')
      out_edges.(order.(!head));
    incr head
  done;
  if !tail = n then Some order else None

let make ~n ~labels ~edges =
  if n < 0 then invalid_arg "Pattern.make: negative node count";
  if Array.length labels <> n then
    invalid_arg "Pattern.make: label array length mismatch";
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iter
    (fun (u, v, b) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Pattern.make: edge endpoint out of range";
      (match b with
      | Bounded k when k < 1 -> invalid_arg "Pattern.make: bound must be >= 1"
      | Bounded _ | Unbounded -> ());
      out_edges.(u) <- (v, b) :: out_edges.(u);
      in_edges.(v) <- (u, b) :: in_edges.(v))
    edges;
  {
    n;
    labels = Array.copy labels;
    edges;
    out_edges;
    in_edges;
    topo = topo_sort n out_edges in_edges;
  }

let node_count p = p.n
let edge_count p = List.length p.edges
let label p u = p.labels.(u)
let edges p = p.edges
let out_edges p u = p.out_edges.(u)
let in_edges p u = p.in_edges.(u)
let is_acyclic p = Option.is_some p.topo

let topo_node p i =
  match p.topo with
  | Some order when i >= 0 && i < p.n -> order.(i)
  | Some _ -> invalid_arg "Pattern.topo_node: index out of range"
  | None -> invalid_arg "Pattern.topo_node: the pattern has a cycle"

let all_bounds_one p =
  List.for_all (fun (_, _, b) -> b = Bounded 1) p.edges

let with_all_bounds p b =
  make ~n:p.n ~labels:p.labels
    ~edges:(List.map (fun (u, v, _) -> (u, v, b)) p.edges)

let pp_bound ppf = function
  | Bounded k -> Format.pp_print_int ppf k
  | Unbounded -> Format.pp_print_char ppf '*'

let pp ppf p =
  Format.fprintf ppf "@[<v>pattern n=%d@," p.n;
  for u = 0 to p.n - 1 do
    Format.fprintf ppf "  %d[l%d]@," u p.labels.(u)
  done;
  List.iter
    (fun (u, v, b) -> Format.fprintf ppf "  %d -%a-> %d@," u pp_bound b v)
    (List.rev p.edges);
  Format.fprintf ppf "@]"

type result = int array array option

let result_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | None, Some _ | Some _, None -> false

let result_size = function
  | None -> 0
  | Some arrays -> Array.fold_left (fun acc a -> acc + Array.length a) 0 arrays
