type t = {
  n : int;
  labels : int array;
  edges : (int * int * Rpq.t) list;
  out_edges : (int * Rpq.t) list array;
}

let make ~n ~labels ~edges =
  if n < 0 then invalid_arg "Regular_pattern.make: negative node count";
  if Array.length labels <> n then
    invalid_arg "Regular_pattern.make: label array length mismatch";
  let out_edges = Array.make (Mono.imax 1 n) [] in
  List.iter
    (fun (u, v, r) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Regular_pattern.make: edge endpoint out of range";
      out_edges.(u) <- (v, r) :: out_edges.(u))
    edges;
  { n; labels = Array.copy labels; edges; out_edges }

let node_count p = p.n
let edge_count p = List.length p.edges
let label p u = p.labels.(u)
let edges p = p.edges

let of_pattern p =
  let n = Pattern.node_count p in
  let labels = Array.init n (Pattern.label p) in
  let edges =
    List.map
      (fun (u, v, b) ->
        let r =
          match b with
          | Pattern.Unbounded -> Rpq.Star Rpq.Any
          | Pattern.Bounded k ->
              (* at most k-1 intermediate nodes *)
              let rec opts i acc =
                if i = 0 then acc
                else
                  match acc with
                  | None -> opts (i - 1) (Some (Rpq.Opt Rpq.Any))
                  | Some r -> opts (i - 1) (Some (Rpq.Seq (Rpq.Opt Rpq.Any, r)))
              in
              (match opts (k - 1) None with
              | None ->
                  (* k = 1: only the empty word.  No node carries label -1,
                     so Opt of it recognises exactly {ε} on any graph. *)
                  Rpq.Opt (Rpq.Label (-1))
              | Some r -> r)
        in
        (u, v, r))
      (Pattern.edges p)
  in
  make ~n ~labels ~edges

(* ------------------------------------------------------------------ *)
(* r-reachability: nodes reachable from a source by a nonempty path whose
   intermediate labels spell a word in L(r).  One product BFS per source,
   memoised per (regex, source). *)

module Nfa = Rpq.Nfa

(* r-reach of one source: product BFS over (node-as-intermediate, state);
   a node y is reached when some config (x, accepting) has an edge to y, or
   directly when ε ∈ L(r). *)
let r_reach nfa g v =
  let n = Digraph.n g in
  let q = Nfa.states nfa in
  let out = Bitset.create (Mono.imax 1 n) in
  let init = Nfa.closure nfa (Bitset.of_list q [ Nfa.start nfa ]) in
  let eps_accepts = Bitset.mem init (Nfa.accept nfa) in
  if eps_accepts then Digraph.iter_succ g v (Bitset.add out);
  let seen = Bitset.create (Mono.imax 1 (n * q)) in
  let worklist = Queue.create () in
  let push x s =
    let idx = (x * q) + s in
    if not (Bitset.mem seen idx) then begin
      Bitset.add seen idx;
      Queue.add (x, s) worklist;
      (* x is an intermediate in state s; if s accepts, x's successors are
         endpoints *)
      if s = Nfa.accept nfa then Digraph.iter_succ g x (Bitset.add out)
    end
  in
  (* successors of v become first intermediates *)
  Digraph.iter_succ g v (fun x ->
      Bitset.iter (fun s -> push x s)
        (Nfa.step nfa init (Digraph.label g x)));
  while not (Queue.is_empty worklist) do
    let x, s = Queue.pop worklist in
    let from = Bitset.of_list q [ s ] in
    Digraph.iter_succ g x (fun y ->
        Bitset.iter (fun s' -> push y s')
          (Nfa.step nfa from (Digraph.label g y)))
  done;
  out

let eval p g =
  let np = p.n and n = Digraph.n g in
  if np = 0 then Some [||]
  else begin
    let cand = Array.init np (fun _ -> Bitset.create (Mono.imax 1 n)) in
    for v = 0 to n - 1 do
      for u = 0 to np - 1 do
        if p.labels.(u) = Digraph.label g v then Bitset.add cand.(u) v
      done
    done;
    (* Memoised r-reach per distinct edge regex.  The outer table is keyed
       by the regex AST itself and holds a handful of entries per eval;
       the per-node inner caches are the hot tables and are keyed
       monomorphically.  lint: allow CMP01 *)
    let compiled : (Rpq.t, Nfa.t * Bitset.t Mono.Itbl.t) Hashtbl.t =
      (Hashtbl.create 8 [@lint.allow "CMP01"])
    in
    let reach r v =
      let nfa, cache =
        match Hashtbl.find_opt compiled r with
        | Some x -> x
        | None ->
            let x = (Nfa.compile r, Mono.Itbl.create 64) in
            Hashtbl.replace compiled r x;
            x
      in
      match Mono.Itbl.find_opt cache v with
      | Some s -> s
      | None ->
          let s = r_reach nfa g v in
          Mono.Itbl.replace cache v s;
          s
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for u = 0 to np - 1 do
        let outs = p.out_edges.(u) in
        if outs <> [] then begin
          let to_remove = ref [] in
          Bitset.iter
            (fun v ->
              let supported =
                List.for_all
                  (fun (u', r) -> not (Bitset.disjoint (reach r v) cand.(u')))
                  outs
              in
              if not supported then to_remove := v :: !to_remove)
            cand.(u);
          if !to_remove <> [] then begin
            changed := true;
            List.iter (Bitset.remove cand.(u)) !to_remove
          end
        end
      done
    done;
    if Array.exists Bitset.is_empty cand then None
    else Some (Array.map Bitset.to_array cand)
  end

let pp ppf p =
  Format.fprintf ppf "@[<v>regular pattern n=%d@," p.n;
  for u = 0 to p.n - 1 do
    Format.fprintf ppf "  %d[l%d]@," u p.labels.(u)
  done;
  List.iter
    (fun (u, v, r) -> Format.fprintf ppf "  %d -[%a]-> %d@," u Rpq.pp r v)
    (List.rev p.edges);
  Format.fprintf ppf "@]"
