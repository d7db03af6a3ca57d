type t =
  | Label of int
  | Any
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

(* ------------------------------------------------------------------ *)
(* Thompson construction.  States are integers; transitions consume one
   node label (exact or wildcard); epsilon edges are kept separate. *)

module Nfa = struct
  type sym = Exact of int | Wild

  type t = {
    states : int;
    eps : int list array;
    trans : (sym * int) list array; (* consuming transitions *)
    start : int;
    accept : int;
  }

  let compile r =
    let count = ref 0 in
    let eps_edges = ref [] and sym_edges = ref [] in
    let fresh () =
      let s = !count in
      incr count;
      s
    in
    let add_eps a b = eps_edges := (a, b) :: !eps_edges in
    let add_sym a s b = sym_edges := (a, s, b) :: !sym_edges in
    let rec go r =
      match r with
      | Label l ->
          let a = fresh () and b = fresh () in
          add_sym a (Exact l) b;
          (a, b)
      | Any ->
          let a = fresh () and b = fresh () in
          add_sym a Wild b;
          (a, b)
      | Seq (x, y) ->
          let ax, bx = go x in
          let ay, by = go y in
          add_eps bx ay;
          (ax, by)
      | Alt (x, y) ->
          let a = fresh () and b = fresh () in
          let ax, bx = go x in
          let ay, by = go y in
          add_eps a ax;
          add_eps a ay;
          add_eps bx b;
          add_eps by b;
          (a, b)
      | Star x ->
          let a = fresh () and b = fresh () in
          let ax, bx = go x in
          add_eps a ax;
          add_eps a b;
          add_eps bx ax;
          add_eps bx b;
          (a, b)
      | Plus x ->
          (* x · x* *)
          let ax, bx = go x in
          let ay, by = go (Star x) in
          add_eps bx ay;
          (ax, by)
      | Opt x ->
          let a = fresh () and b = fresh () in
          let ax, bx = go x in
          add_eps a ax;
          add_eps a b;
          add_eps bx b;
          (a, b)
    in
    let start, accept = go r in
    let n = !count in
    let eps = Array.make n [] in
    List.iter (fun (a, b) -> eps.(a) <- b :: eps.(a)) !eps_edges;
    let trans = Array.make n [] in
    List.iter (fun (a, s, b) -> trans.(a) <- (s, b) :: trans.(a)) !sym_edges;
    { states = n; eps; trans; start; accept }

  (* epsilon closure of a state set, in place *)
  let closure nfa set =
    let stack = ref (Bitset.to_list set) in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | q :: rest ->
          stack := rest;
          List.iter
            (fun q' ->
              if not (Bitset.mem set q') then begin
                Bitset.add set q';
                stack := q' :: !stack
              end)
            nfa.eps.(q)
    done;
    set

  (* states reachable from the (closed) set by consuming one node with label
     [l], epsilon-closed *)
  let step nfa set l =
    let out = Bitset.create nfa.states in
    Bitset.iter
      (fun q ->
        List.iter
          (fun (s, q') ->
            match s with
            | Wild -> Bitset.add out q'
            | Exact x -> if x = l then Bitset.add out q')
          nfa.trans.(q))
      set;
    closure nfa out
end

(* ------------------------------------------------------------------ *)
(* Evaluation *)

(* NFA state set after reading just the label of [u] from the start. *)
let entry_sets nfa g =
  let init = Nfa.closure nfa (Bitset.of_list nfa.Nfa.states [ nfa.start ]) in
  let by_label = Mono.Itbl.create 16 in
  fun u ->
    let l = Digraph.label g u in
    match Mono.Itbl.find_opt by_label l with
    | Some s -> s
    | None ->
        let s = Nfa.step nfa init l in
        Mono.Itbl.replace by_label l s;
        s

let matches r g =
  let nfa = Nfa.compile r in
  let n = Digraph.n g in
  let q = nfa.Nfa.states in
  (* canreach.(v*q + s): configuration (v, s) — at node v, state s after
     consuming v's label — reaches acceptance.  Backward BFS. *)
  let canreach = Bitset.create (Mono.imax 1 (n * q)) in
  let worklist = Queue.create () in
  let push v s =
    let idx = (v * q) + s in
    if not (Bitset.mem canreach idx) then begin
      Bitset.add canreach idx;
      Queue.add (v, s) worklist
    end
  in
  for v = 0 to n - 1 do
    push v nfa.accept
  done;
  let rev_sym = Array.make q [] in
  let rev_eps = Array.make q [] in
  for s = 0 to q - 1 do
    List.iter (fun (sym, s') -> rev_sym.(s') <- (sym, s) :: rev_sym.(s')) nfa.trans.(s);
    List.iter (fun s' -> rev_eps.(s') <- s :: rev_eps.(s')) nfa.eps.(s)
  done;
  while not (Queue.is_empty worklist) do
    let v, s' = Queue.pop worklist in
    (* epsilon predecessors live at the same node *)
    List.iter (fun s -> push v s) rev_eps.(s');
    (* consuming predecessors: (u, s) --L(v)--> (v, s') along edges (u,v) *)
    List.iter
      (fun (sym, s) ->
        let fires =
          match sym with Nfa.Wild -> true | Exact l -> l = Digraph.label g v
        in
        if fires then Digraph.iter_pred g v (fun u -> push u s))
      rev_sym.(s')
  done;
  let entry = entry_sets nfa g in
  let out = Bitset.create (Mono.imax 1 n) in
  for u = 0 to n - 1 do
    let s0 = entry u in
    let hit = ref false in
    Bitset.iter
      (fun s -> if (not !hit) && Bitset.mem canreach ((u * q) + s) then hit := true)
      s0;
    if !hit then Bitset.add out u
  done;
  out

let satisfies r g u = Bitset.mem (matches r g) u

let pairs r g ~source =
  let nfa = Nfa.compile r in
  let n = Digraph.n g in
  let q = nfa.Nfa.states in
  let seen = Bitset.create (Mono.imax 1 (n * q)) in
  let out = Bitset.create (Mono.imax 1 n) in
  let entry = entry_sets nfa g in
  let worklist = Queue.create () in
  let push v s =
    let idx = (v * q) + s in
    if not (Bitset.mem seen idx) then begin
      Bitset.add seen idx;
      Queue.add (v, s) worklist;
      if s = nfa.accept then Bitset.add out v
    end
  in
  Bitset.iter (fun s -> push source s) (entry source);
  while not (Queue.is_empty worklist) do
    let v, s = Queue.pop worklist in
    Digraph.iter_succ g v (fun w ->
        let next =
          Nfa.step nfa (Bitset.of_list q [ s ]) (Digraph.label g w)
        in
        Bitset.iter (fun s' -> push w s') next)
  done;
  out

(* ------------------------------------------------------------------ *)
(* Printing and parsing *)

let rec pp ppf r =
  let atom ppf = function
    | Label l -> Format.fprintf ppf "l%d" l
    | Any -> Format.pp_print_char ppf '.'
    | r -> Format.fprintf ppf "(%a)" pp r
  in
  match r with
  | Label l -> Format.fprintf ppf "l%d" l
  | Any -> Format.pp_print_char ppf '.'
  | Seq (x, y) ->
      let side ppf = function
        | Alt _ as r -> Format.fprintf ppf "(%a)" pp r
        | r -> pp ppf r
      in
      Format.fprintf ppf "%a%a" side x side y
  | Alt (x, y) -> Format.fprintf ppf "%a|%a" pp x pp y
  | Star x -> Format.fprintf ppf "%a*" atom x
  | Plus x -> Format.fprintf ppf "%a+" atom x
  | Opt x -> Format.fprintf ppf "%a?" atom x

let parse s =
  let len = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg =
    invalid_arg (Printf.sprintf "Rpq.parse: %s at position %d in %S" msg !pos s)
  in
  let rec alt () =
    let left = seq () in
    match peek () with
    | Some '|' ->
        advance ();
        Alt (left, alt ())
    | _ -> left
  and seq () =
    let first = postfix () in
    let rec more acc =
      match peek () with
      | Some ('l' | '.' | '(') -> more (Seq (acc, postfix ()))
      | _ -> acc
    in
    more first
  and postfix () =
    let a = atom () in
    let rec reps acc =
      match peek () with
      | Some '*' ->
          advance ();
          reps (Star acc)
      | Some '+' ->
          advance ();
          reps (Plus acc)
      | Some '?' ->
          advance ();
          reps (Opt acc)
      | _ -> acc
    in
    reps a
  and atom () =
    match peek () with
    | Some '.' ->
        advance ();
        Any
    | Some 'l' ->
        advance ();
        let start = !pos in
        while
          match peek () with Some c when c >= '0' && c <= '9' -> true | _ -> false
        do
          advance ()
        done;
        if !pos = start then fail "expected digits after 'l'";
        Label (int_of_string (String.sub s start (!pos - start)))
    | Some '(' ->
        advance ();
        let r = alt () in
        (match peek () with
        | Some ')' -> advance ()
        | _ -> fail "expected ')'");
        r
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "unexpected end of input"
  in
  let r = alt () in
  if !pos <> len then fail "trailing input";
  r
