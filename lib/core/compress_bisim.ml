let compress_of_partition g assignment =
  let n = Digraph.n g in
  if Array.length assignment <> n then
    invalid_arg "Compress_bisim: assignment length mismatch";
  if n = 0 then Compressed.v ~graph:Digraph.empty ~node_map:[||]
  else begin
    let first = Partition.normalize_assignment assignment in
    let k = Array.fold_left (fun acc b -> Mono.imax acc (b + 1)) 0 first in
    let first_labels = Array.make k 0 in
    Array.iteri (fun v b -> first_labels.(b) <- Digraph.label g v) first;
    (* Renumber the classes in ascending label order, by first occurrence
       within a label: a stable counting sort, so each label's
       hypernodes form one id range of Gr. *)
    let nl = Digraph.label_count g in
    let start = Array.make (nl + 1) 0 in
    Array.iter (fun l -> start.(l + 1) <- start.(l + 1) + 1) first_labels;
    for l = 1 to nl do
      start.(l) <- start.(l) + start.(l - 1)
    done;
    let renum = Array.make k 0 and labels = Array.make k 0 in
    Array.iteri
      (fun b l ->
        renum.(b) <- start.(l);
        labels.(start.(l)) <- l;
        start.(l) <- start.(l) + 1)
      first_labels;
    let assignment = Array.map (fun b -> renum.(b)) first in
    Compressed.v ~node_map:assignment
      ~graph:
        (Digraph.quotient ~labels ~self_loops:true ~class_of:assignment ~k g)
  end

let compress ?pool g =
  Obs.span "compressB" (fun () ->
      let part =
        Obs.span "compressB.partition" (fun () ->
            Bisimulation.max_bisimulation ?pool g)
      in
      Obs.span "compressB.quotient" (fun () -> compress_of_partition g part))

type scratch = {
  c : Compressed.t;
  sim : Bounded_sim.scratch;  (* the match on Gr, rows over Vr *)
  mutable rows : Bitset.t array;  (* the answer after P, rows over V *)
}

let scratch c =
  { c; sim = Bounded_sim.scratch (Compressed.graph c); rows = [||] }

let answer_into s p =
  Bounded_sim.match_into s.sim p
  &&
  let np = Pattern.node_count p and have = Array.length s.rows in
  if have < np then
    s.rows <-
      Array.init np (fun u ->
          if u < have then s.rows.(u)
          else Bitset.create (Compressed.original_n s.c));
  for u = 0 to np - 1 do
    Bitset.clear s.rows.(u);
    Compressed.expand_into s.c (Bounded_sim.matched s.sim u) s.rows.(u)
  done;
  true

let row s u = s.rows.(u)

let answer p c =
  let s = scratch c in
  if answer_into s p then
    Some
      (Array.init (Pattern.node_count p) (fun u -> Bitset.to_array s.rows.(u)))
  else None

let answer_boolean p c =
  Bounded_sim.eval_boolean p (Compressed.graph c)

let answer_regular p c =
  Compressed.expand_result c
    (Regular_pattern.eval p (Compressed.graph c))

let answer_rpq r c =
  Compressed.expand_nodes c
    (Bitset.to_array (Rpq.matches r (Compressed.graph c)))
