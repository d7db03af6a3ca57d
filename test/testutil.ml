(* Shared fixtures and qcheck generators for the test suite.

   The fixtures encode the paper's worked examples in executable form.  The
   published figures are not fully recoverable from the text, so each
   fixture is built to satisfy exactly the properties the prose asserts
   (which are the properties the tests check). *)

(* Labels used by the recommendation-network fixture (Fig 2). *)
let l_c = 0 (* customer *)
let l_bsa = 1 (* book server agent *)
let l_msa = 2 (* music shop agent *)
let l_fa = 3 (* facilitator agent *)

(* Node ids of the recommendation network. *)
module Rec = struct
  let bsa1 = 0
  let bsa2 = 1
  let msa1 = 2
  let msa2 = 3
  let fa1 = 4
  let fa2 = 5
  let c1 = 6
  let c2 = 7
  let fa3 = 8
  let fa4 = 9
  let c3 = 10
  let c4 = 11
  let c5 = 12
  let c6 = 13
end

(* The recommendation network G of Fig 2 (Example 1), as constrained by the
   paper's prose:
   - BSA1 and BSA2 are reachability equivalent (Example 2), as are
     MSA1/MSA2; both BSAs recommend the MSAs and FAs;
   - customers C1/C2 interact with FA1/FA2 (2-cycles), within 2 hops of the
     BSAs, so the pattern query of Example 1 matches
     {BSA1,BSA2} / {FA1,FA2} / {C1,C2};
   - FA3 and FA4 are bisimilar but not reachability equivalent: FA3 reaches
     C3, FA4 does not (Example 2 / Example 4);
   - FA2 and FA3 are not bisimilar: FA2 has a C child that interacts back,
     FA3 does not (Example 4);
   - the customers C3..C5 are pairwise reachability equivalent. *)
let recommendation () =
  let open Rec in
  let labels = Array.make 14 l_c in
  labels.(bsa1) <- l_bsa;
  labels.(bsa2) <- l_bsa;
  labels.(msa1) <- l_msa;
  labels.(msa2) <- l_msa;
  labels.(fa1) <- l_fa;
  labels.(fa2) <- l_fa;
  labels.(fa3) <- l_fa;
  labels.(fa4) <- l_fa;
  Digraph.make ~n:14 ~labels
    [
      (bsa1, msa1); (bsa1, msa2); (bsa1, fa1); (bsa1, fa2);
      (bsa2, msa1); (bsa2, msa2); (bsa2, fa1); (bsa2, fa2);
      (fa1, c1); (c1, fa1);
      (fa2, c2); (c2, fa2);
      (fa3, c3); (fa3, c4); (fa3, c5);
      (fa4, c6);
    ]

(* The pattern Qp of Example 1: find BSAs that reach a customer within 2
   hops, where the customer interacts with an FA (edges C->FA and FA->C,
   bound 1 each). *)
let recommendation_pattern () =
  Pattern.make ~n:3
    ~labels:[| l_bsa; l_c; l_fa |]
    ~edges:
      [
        (0, 1, Pattern.Bounded 2);
        (1, 2, Pattern.Bounded 1);
        (2, 1, Pattern.Bounded 1);
      ]

(* G2 of Fig 4: the bisimulation-index counter-example for reachability.
   C1 -> E1 and C2 -> E2; C1 and C2 are bisimilar (so a bisimulation-based
   index merges them) yet C2 reaches E2 while C1 does not. *)
module Fig4 = struct
  let c1 = 0
  let c2 = 1
  let e1 = 2
  let e2 = 3

  let g2 () =
    Digraph.make ~n:4 ~labels:[| 0; 0; 1; 1 |] [ (c1, e1); (c2, e2) ]
end

(* G1 of Fig 6: A(1)-index counter-example.  A1 -> B1{C,D}; A2 -> B2{C},
   B3{D}; A3 -> B4{C}, B5{C,D}.  All A's have only B children (1-bisimilar)
   but are pairwise non-bisimilar; the pattern {(B,C),(B,D)} matches only
   B1 and B5. *)
module Fig6 = struct
  let l_a = 0
  let l_b = 1
  let l_cc = 2
  let l_d = 3
  let a1 = 0
  let a2 = 1
  let a3 = 2
  let b1 = 3
  let b2 = 4
  let b3 = 5
  let b4 = 6
  let b5 = 7
  let c1 = 8
  let c2 = 9
  let c3 = 10
  let c4 = 11
  let d1 = 12
  let d2 = 13
  let d3 = 14

  let g1 () =
    let labels =
      [| l_a; l_a; l_a; l_b; l_b; l_b; l_b; l_b; l_cc; l_cc; l_cc; l_cc; l_d; l_d; l_d |]
    in
    Digraph.make ~n:15 ~labels
      [
        (a1, b1); (a2, b2); (a2, b3); (a3, b4); (a3, b5);
        (b1, c1); (b1, d1);
        (b2, c2);
        (b3, d2);
        (b4, c3);
        (b5, c4); (b5, d3);
      ]

  (* G2 of Fig 6: A4 ~Re A5 but not bisimilar; A5 ~ A6 bisimilar but not
     reachability equivalent. *)
  let a4 = 0
  let a5 = 1
  let a6 = 2
  let b6 = 3
  let b7 = 4
  let c5 = 5
  let c6 = 6

  let g2 () =
    let labels = [| l_a; l_a; l_a; l_b; l_b; l_cc; l_cc |] in
    Digraph.make ~n:7 ~labels
      [ (a4, b6); (a4, c5); (a5, b6); (a6, b7); (b6, c5); (b7, c6) ]
end

(* ------------------------------------------------------------------ *)
(* qcheck generators *)

let digraph_gen ?(max_n = 14) ?(max_labels = 3) () =
  let open QCheck2.Gen in
  let* n = int_range 1 max_n in
  let* label_count = int_range 1 max_labels in
  let* labels = array_size (pure n) (int_range 0 (label_count - 1)) in
  let* m = int_range 0 (3 * n) in
  let* edges =
    list_size (pure m) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  pure (Digraph.make ~n ~labels edges)

let digraph_print g = Format.asprintf "%a" Digraph.pp g

(* An "arbitrary" is a generator paired with a printer, consumed by
   {!qtest}. *)
type 'a arb = 'a QCheck2.Gen.t * ('a -> string)

let arbitrary_digraph ?max_n ?max_labels () =
  (digraph_gen ?max_n ?max_labels (), digraph_print)

(* Graphs whose condensations take the shapes Reach_equiv's passes treat
   specially: cyclic SCCs (a cycle, or one self-loop node) with fans of
   trivial sinks and sources hanging off them and chains of trivial SCCs
   below them, self-loop singletons as sinks or sources, isolated nodes,
   and the empty graph.  A few random edges mix the gadgets. *)
let condensation_shapes_gen =
  let open QCheck2.Gen in
  let* seed = int_range 0 99999 in
  let* cores = int_range 0 3 in
  let* extra = int_range 0 3 in
  let rng = Random.State.make [| seed |] in
  let upto k = Random.State.int rng (k + 1) in
  let n = ref 0 and edges = ref [] in
  let node () =
    incr n;
    !n - 1
  in
  let edge u v = edges := (u, v) :: !edges in
  for _ = 1 to cores do
    let len = 1 + upto 3 in
    let core = Array.init len (fun _ -> node ()) in
    Array.iteri (fun i v -> edge v core.((i + 1) mod len)) core;
    let hook () = core.(Random.State.int rng len) in
    for _ = 1 to upto 4 do
      edge (hook ()) (node ())
    done;
    for _ = 1 to upto 4 do
      edge (node ()) (hook ())
    done;
    let below = ref (hook ()) in
    for _ = 1 to upto 4 do
      let v = node () in
      edge !below v;
      below := v
    done;
    for _ = 1 to upto 2 do
      let s = node () in
      edge s s;
      if Random.State.bool rng then edge (hook ()) s else edge s (hook ())
    done
  done;
  for _ = 1 to upto 3 do
    ignore (node ())
  done;
  if Random.State.bool rng then begin
    let s = node () in
    edge s s
  end;
  for _ = 1 to extra do
    if !n > 0 then edge (Random.State.int rng !n) (Random.State.int rng !n)
  done;
  pure (Digraph.make ~n:!n !edges)

let arbitrary_condensation_shapes = (condensation_shapes_gen, digraph_print)

(* A graph together with a batch of random updates. *)
let graph_updates_gen ?(max_n = 14) ?(max_updates = 10) () =
  let open QCheck2.Gen in
  let* g = digraph_gen ~max_n () in
  let n = Digraph.n g in
  let* k = int_range 0 max_updates in
  let upd =
    let* u = int_range 0 (n - 1) in
    let* v = int_range 0 (n - 1) in
    let* ins = bool in
    pure (if ins then Edge_update.Insert (u, v) else Edge_update.Delete (u, v))
  in
  let* updates = list_size (pure k) upd in
  pure (g, updates)

let graph_updates_print (g, updates) =
  Format.asprintf "%a@.updates: %a" Digraph.pp g
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Edge_update.pp)
    updates

let arbitrary_graph_updates ?max_n ?max_updates () =
  (graph_updates_gen ?max_n ?max_updates (), graph_updates_print)

(* A graph and a compatible random pattern. *)
let graph_pattern_gen ?(max_n = 12) () =
  let open QCheck2.Gen in
  let* g = digraph_gen ~max_n () in
  let* seed = int_range 0 10000 in
  let rng = Random.State.make [| seed |] in
  let* nodes = int_range 1 4 in
  let* edges = int_range 0 5 in
  let* max_bound = int_range 1 3 in
  let* unbounded = float_range 0.0 0.5 in
  let p =
    Pattern_gen.random rng g ~nodes ~edges ~max_bound ~unbounded_prob:unbounded
  in
  pure (g, p)

let graph_pattern_print (g, p) =
  Format.asprintf "%a@.%a" Digraph.pp g Pattern.pp p

let arbitrary_graph_pattern ?max_n () =
  (graph_pattern_gen ?max_n (), graph_pattern_print)

(* Edge list in lexicographic order, via the allocation-free iterator (the
   core API no longer materialises boxed edge lists). *)
let edges_list g =
  List.rev (Digraph.fold_edges g (fun acc u v -> (u, v) :: acc) [])

(* The nodes reachable from [u] by a nonempty path of at most [k] edges,
   by one forward BFS from [u]: the per-node oracle for the multi-source
   backward search of [Traversal.ancestors].
   @raise Invalid_argument if [k < 0]. *)
let bounded_descendants g u k =
  if k < 0 then invalid_arg "Testutil.bounded_descendants: negative bound";
  let visited = Bitset.create (Digraph.n g) in
  let frontier = ref [ u ] and depth = ref 0 in
  while !frontier <> [] && !depth < k do
    incr depth;
    let next = ref [] in
    List.iter
      (fun x ->
        Digraph.iter_succ g x (fun v ->
            if not (Bitset.mem visited v) then begin
              Bitset.add visited v;
              next := v :: !next
            end))
      !frontier;
    frontier := !next
  done;
  visited

(* [Traversal.ancestors] from the sources [vs], into a fresh set. *)
let ancestors_of ?depth g vs =
  let n = Digraph.n g in
  let into = Bitset.create n in
  Traversal.ancestors ?depth g (Traversal.queue n) (Bitset.of_list n vs) ~into;
  into

(* Register a qcheck property as an alcotest case. *)
let qtest ?(count = 200) name (gen, print) prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print gen prop)

let check_bool name expected actual = Alcotest.(check bool) name expected actual
let check_int name expected actual = Alcotest.(check int) name expected actual
