(* Tests for the query substrate: reachability evaluators, 2-hop labeling,
   patterns, graph simulation, bounded simulation, incremental match, and
   the pattern generator. *)

let qtest = Testutil.qtest
let arb_g = Testutil.arbitrary_digraph ()

let pair_gen =
  let open QCheck2.Gen in
  let* g = Testutil.digraph_gen () in
  let n = Digraph.n g in
  let* u = int_range 0 (n - 1) in
  let* v = int_range 0 (n - 1) in
  pure (g, u, v)

let arb_pair =
  (pair_gen, fun (g, u, v) -> Format.asprintf "%a@.(%d,%d)" Digraph.pp g u v)

(* ------------------------------------------------------------------ *)
(* Reachability evaluators *)

let reach_unit () =
  let g = Digraph.make ~n:4 [ (0, 1); (1, 2) ] in
  List.iter
    (fun algo ->
      let name = Reach_query.algorithm_name algo in
      Alcotest.(check bool) (name ^ " forward") true
        (Reach_query.eval algo g ~source:0 ~target:2);
      Alcotest.(check bool) (name ^ " reflexive") true
        (Reach_query.eval algo g ~source:3 ~target:3);
      Alcotest.(check bool) (name ^ " no path") false
        (Reach_query.eval algo g ~source:2 ~target:0);
      Alcotest.(check bool) (name ^ " nonempty self") false
        (Reach_query.eval_nonempty algo g ~source:1 ~target:1))
    Reach_query.all_algorithms

let reach_props =
  List.map
    (fun algo ->
      qtest
        (Reach_query.algorithm_name algo ^ " agrees with BFS")
        arb_pair
        (fun (g, u, v) ->
          Reach_query.eval algo g ~source:u ~target:v
          = Reach_query.eval Reach_query.Bfs g ~source:u ~target:v))
    Reach_query.all_algorithms
  @ [
      qtest "eval_nonempty differs only on self" arb_pair (fun (g, u, v) ->
          if u <> v then
            Reach_query.eval_nonempty Reach_query.Bfs g ~source:u ~target:v
            = Reach_query.eval Reach_query.Bfs g ~source:u ~target:v
          else
            Reach_query.eval_nonempty Reach_query.Bfs g ~source:u ~target:v
            = Traversal.bfs_reaches_nonempty g u u);
    ]

let random_pairs_unit () =
  let g = Digraph.make ~n:5 [] in
  let rng = Random.State.make [| 4 |] in
  let pairs = Reach_query.random_pairs rng g ~count:20 in
  Alcotest.(check int) "count" 20 (Array.length pairs);
  Alcotest.(check bool) "in range" true
    (Array.for_all (fun (u, v) -> u >= 0 && u < 5 && v >= 0 && v < 5) pairs);
  Alcotest.check_raises "empty graph"
    (Invalid_argument "Reach_query.random_pairs: empty graph") (fun () ->
      ignore (Reach_query.random_pairs rng (Digraph.make ~n:0 []) ~count:1))

(* ------------------------------------------------------------------ *)
(* 2-hop labeling *)

let two_hop_props =
  [
    qtest ~count:300 "2-hop query equals BFS" arb_pair (fun (g, u, v) ->
        let t = Two_hop.build g in
        Two_hop.query t u v = Traversal.bfs_reaches g u v);
    qtest "entry count bounds memory" arb_g (fun g ->
        let t = Two_hop.build g in
        Two_hop.memory_bytes t >= 8 * Two_hop.entry_count t);
  ]

let two_hop_all_pairs () =
  (* exhaustive check on a graph with cycles, diamonds, and isolated bits *)
  let g =
    Digraph.make ~n:8
      [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (1, 4); (5, 6); (6, 6) ]
  in
  let t = Two_hop.build g in
  for u = 0 to 7 do
    for v = 0 to 7 do
      Alcotest.(check bool)
        (Printf.sprintf "pair (%d,%d)" u v)
        (Traversal.bfs_reaches g u v) (Two_hop.query t u v)
    done
  done

(* ------------------------------------------------------------------ *)
(* GRAIL *)

let grail_props =
  [
    qtest ~count:300 "GRAIL query equals BFS" arb_pair (fun (g, u, v) ->
        let t = Grail.build g in
        Grail.query t u v = Traversal.bfs_reaches g u v);
    qtest "GRAIL with one traversal is still exact" arb_pair (fun (g, u, v) ->
        let t = Grail.build ~traversals:1 g in
        Grail.query t u v = Traversal.bfs_reaches g u v);
    qtest "GRAIL memory is linear in nodes" arb_g (fun g ->
        Grail.build g |> Grail.memory_bytes >= 0);
  ]

let grail_all_pairs () =
  let g =
    Digraph.make ~n:9
      [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (1, 4); (5, 6); (6, 6); (7, 8) ]
  in
  let t = Grail.build ~traversals:2 g in
  for u = 0 to 8 do
    for v = 0 to 8 do
      Alcotest.(check bool)
        (Printf.sprintf "grail (%d,%d)" u v)
        (Traversal.bfs_reaches g u v) (Grail.query t u v)
    done
  done;
  Alcotest.(check bool) "fallback counter moves" true (Grail.fallbacks t >= 0)

(* ------------------------------------------------------------------ *)
(* Tree cover *)

let tree_cover_props =
  [
    qtest ~count:300 "tree cover equals BFS" arb_pair (fun (g, u, v) ->
        let t = Tree_cover.build g in
        Tree_cover.query t u v = Traversal.bfs_reaches g u v);
    qtest "interval sets are compact" arb_g (fun g ->
        (* never more intervals than condensation nodes squared, and at
           least one per node with descendants *)
        let t = Tree_cover.build g in
        Tree_cover.interval_count t >= 0
        && Tree_cover.memory_bytes t >= 16 * Tree_cover.interval_count t);
  ]

let tree_cover_all_pairs () =
  let g =
    Digraph.make ~n:9
      [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (1, 4); (5, 6); (6, 6); (7, 8); (8, 4) ]
  in
  let t = Tree_cover.build g in
  for u = 0 to 8 do
    for v = 0 to 8 do
      Alcotest.(check bool)
        (Printf.sprintf "tree cover (%d,%d)" u v)
        (Traversal.bfs_reaches g u v) (Tree_cover.query t u v)
    done
  done

(* ------------------------------------------------------------------ *)
(* Patterns *)

let pattern_unit () =
  let p =
    Pattern.make ~n:2 ~labels:[| 0; 1 |]
      ~edges:[ (0, 1, Pattern.Bounded 2); (1, 0, Pattern.Unbounded) ]
  in
  Alcotest.(check int) "nodes" 2 (Pattern.node_count p);
  Alcotest.(check int) "edges" 2 (Pattern.edge_count p);
  Alcotest.(check bool) "not all ones" false (Pattern.all_bounds_one p);
  let p1 = Pattern.with_all_bounds p (Pattern.Bounded 1) in
  Alcotest.(check bool) "all ones after rewrite" true (Pattern.all_bounds_one p1)

let pattern_errors () =
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Pattern.make: bound must be >= 1") (fun () ->
      ignore (Pattern.make ~n:1 ~labels:[| 0 |] ~edges:[ (0, 0, Pattern.Bounded 0) ]));
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Pattern.make: edge endpoint out of range") (fun () ->
      ignore (Pattern.make ~n:1 ~labels:[| 0 |] ~edges:[ (0, 3, Pattern.Bounded 1) ]));
  Alcotest.check_raises "labels mismatch"
    (Invalid_argument "Pattern.make: label array length mismatch") (fun () ->
      ignore (Pattern.make ~n:2 ~labels:[| 0 |] ~edges:[]))

let result_ops () =
  Alcotest.(check bool) "none equal" true (Pattern.result_equal None None);
  Alcotest.(check bool) "some vs none" false
    (Pattern.result_equal None (Some [| [| 0 |] |]));
  Alcotest.(check int) "size none" 0 (Pattern.result_size None);
  Alcotest.(check int) "size some" 3
    (Pattern.result_size (Some [| [| 0; 1 |]; [| 5 |] |]))

(* ------------------------------------------------------------------ *)
(* Bounded simulation: hand-checked examples *)

let bsim_example_basic () =
  (* data: a -> b -> c, labels 0,1,2 *)
  let g = Digraph.make ~n:3 ~labels:[| 0; 1; 2 |] [ (0, 1); (1, 2) ] in
  (* pattern 0[l0] -> 1[l2] within 2 hops *)
  let p =
    Pattern.make ~n:2 ~labels:[| 0; 2 |] ~edges:[ (0, 1, Pattern.Bounded 2) ]
  in
  (match Bounded_sim.eval p g with
  | Some m ->
      Alcotest.(check (array (array int))) "match" [| [| 0 |]; [| 2 |] |] m
  | None -> Alcotest.fail "expected a match");
  (* bound 1 is too short *)
  let p1 =
    Pattern.make ~n:2 ~labels:[| 0; 2 |] ~edges:[ (0, 1, Pattern.Bounded 1) ]
  in
  Alcotest.(check bool) "bound 1 fails" true (Bounded_sim.eval p1 g = None);
  (* unbounded works *)
  let pu =
    Pattern.make ~n:2 ~labels:[| 0; 2 |] ~edges:[ (0, 1, Pattern.Unbounded) ]
  in
  Alcotest.(check bool) "unbounded works" true (Bounded_sim.eval pu g <> None)

let bsim_cycle_support () =
  (* pattern cycle A->B->A matches a data 2-cycle but not a dead-end pair *)
  let p =
    Pattern.make ~n:2 ~labels:[| 0; 1 |]
      ~edges:[ (0, 1, Pattern.Bounded 1); (1, 0, Pattern.Bounded 1) ]
  in
  let good = Digraph.make ~n:2 ~labels:[| 0; 1 |] [ (0, 1); (1, 0) ] in
  Alcotest.(check bool) "cycle matches" true (Bounded_sim.eval p good <> None);
  let bad = Digraph.make ~n:2 ~labels:[| 0; 1 |] [ (0, 1) ] in
  Alcotest.(check bool) "one-way fails" true (Bounded_sim.eval p bad = None)

let bsim_empty_pattern () =
  let g = Digraph.make ~n:3 [] in
  let p = Pattern.make ~n:0 ~labels:[||] ~edges:[] in
  Alcotest.(check bool) "empty pattern matches trivially" true
    (Bounded_sim.eval p g = Some [||])

let bsim_recommendation () =
  (* Example 1: the pattern finds BSA1/2, C1/2, FA1/2 and nothing else. *)
  let g = Testutil.recommendation () in
  let p = Testutil.recommendation_pattern () in
  let open Testutil.Rec in
  match Bounded_sim.eval p g with
  | None -> Alcotest.fail "expected the Example 1 match"
  | Some m ->
      Alcotest.(check (array int)) "BSA matches" [| bsa1; bsa2 |] m.(0);
      Alcotest.(check (array int)) "C matches" [| c1; c2 |] m.(1);
      Alcotest.(check (array int)) "FA matches" [| fa1; fa2 |] m.(2)

let bsim_nonempty_path_semantics () =
  (* a pattern edge needs a nonempty path: a self-labelled node with no
     cycle cannot support an edge to its own label *)
  let g = Digraph.make ~n:1 ~labels:[| 0 |] [] in
  let p =
    Pattern.make ~n:2 ~labels:[| 0; 0 |] ~edges:[ (0, 1, Pattern.Unbounded) ]
  in
  Alcotest.(check bool) "no self support without cycle" true
    (Bounded_sim.eval p g = None);
  let g_loop = Digraph.make ~n:1 ~labels:[| 0 |] [ (0, 0) ] in
  Alcotest.(check bool) "self loop supports" true
    (Bounded_sim.eval p g_loop <> None)

(* ------------------------------------------------------------------ *)
(* Simulation vs bounded simulation, boolean *)

let sim_props =
  let arb_gp_ones =
    ( (let open QCheck2.Gen in
       let* g, p = Testutil.graph_pattern_gen () in
       pure (g, Pattern.with_all_bounds p (Pattern.Bounded 1))),
      Testutil.graph_pattern_print )
  in
  let arb_gp = Testutil.arbitrary_graph_pattern () in
  (* Out-degrees of 4..16 on up to 40 nodes, so the bound-1 witness scan
     meets long successor lists, both ways: an early hit and a miss that
     runs to the end of the slice. *)
  let dense_bound1 =
    ( (let open QCheck2.Gen in
       let* n = int_range 2 40 in
       let* label_count = int_range 1 3 in
       let* labels = array_size (pure n) (int_range 0 (label_count - 1)) in
       let* degree = int_range 4 16 in
       let* edges =
         list_size (pure (n * degree))
           (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
       in
       let g = Digraph.make ~n ~labels edges in
       let* seed = int_range 0 10000 in
       let* nodes = int_range 1 4 in
       let* pedges = int_range 1 6 in
       let p =
         Pattern_gen.random (Random.State.make [| seed |]) g ~nodes
           ~edges:pedges ~max_bound:1 ~unbounded_prob:0.0
       in
       pure (g, Pattern.with_all_bounds p (Pattern.Bounded 1))),
      Testutil.graph_pattern_print )
  in
  [
    qtest ~count:300 "simulation = bounded sim at bound 1" arb_gp_ones
      (fun (g, p) ->
        Pattern.result_equal (Simulation.eval p g) (Bounded_sim.eval p g));
    qtest ~count:300 "bitset and matrix evaluators agree" arb_gp
      (fun (g, p) ->
        Pattern.result_equal (Bounded_sim.eval p g) (Bounded_sim.eval_matrix p g));
    qtest ~count:300 "bound-1 witnesses at high out-degree"
      dense_bound1 (fun (g, p) ->
        Pattern.result_equal (Bounded_sim.eval p g) (Bounded_sim.eval_matrix p g));
    qtest "boolean agrees with eval" arb_gp (fun (g, p) ->
        Bounded_sim.eval_boolean p g = (Bounded_sim.eval p g <> None));
    qtest "result is a valid match" arb_gp (fun (g, p) ->
        match Bounded_sim.eval p g with
        | None -> true
        | Some m ->
            (* every matched node satisfies label and edge constraints *)
            let ok = ref true in
            Array.iteri
              (fun u matches ->
                Array.iter
                  (fun v ->
                    if Pattern.label p u <> Digraph.label g v then ok := false;
                    List.iter
                      (fun (u', b) ->
                        let witness =
                          Array.exists
                            (fun v' ->
                              match b with
                              | Pattern.Bounded k ->
                                  Bitset.mem
                                    (Testutil.bounded_descendants g v k)
                                    v'
                              | Pattern.Unbounded ->
                                  Traversal.bfs_reaches_nonempty g v v')
                            m.(u')
                        in
                        if not witness then ok := false)
                      (Pattern.out_edges p u))
                  matches)
              m;
            !ok);
    qtest "maximality: unmatched label-compatible nodes fail a constraint"
      arb_gp (fun (g, p) ->
        match Bounded_sim.eval p g with
        | None -> true
        | Some m ->
            let ok = ref true in
            for u = 0 to Pattern.node_count p - 1 do
              for v = 0 to Digraph.n g - 1 do
                if
                  Pattern.label p u = Digraph.label g v
                  && not (Array.exists (fun x -> x = v) m.(u))
                then begin
                  (* v must genuinely violate some edge constraint wrt m *)
                  let violated =
                    List.exists
                      (fun (u', b) ->
                        not
                          (Array.exists
                             (fun v' ->
                               match b with
                               | Pattern.Unbounded ->
                                   Traversal.bfs_reaches_nonempty g v v'
                               | Pattern.Bounded k ->
                                   Bitset.mem
                                     (Testutil.bounded_descendants g v k)
                                     v')
                             m.(u')))
                      (Pattern.out_edges p u)
                  in
                  if not violated then ok := false
                end
              done
            done;
            !ok);
  ]

let sim_rejects_bounds () =
  let p =
    Pattern.make ~n:2 ~labels:[| 0; 0 |] ~edges:[ (0, 1, Pattern.Bounded 2) ]
  in
  Alcotest.check_raises "simulation needs bounds 1"
    (Invalid_argument "Simulation.eval: pattern has a bound other than 1")
    (fun () -> ignore (Simulation.eval p (Digraph.make ~n:1 ~labels:[| 0 |] [])))

(* ------------------------------------------------------------------ *)
(* Pattern I/O *)

let pattern_io_roundtrip () =
  let p =
    Pattern.make ~n:3 ~labels:[| 2; 0; 1 |]
      ~edges:
        [ (0, 1, Pattern.Bounded 3); (1, 2, Pattern.Unbounded); (2, 0, Pattern.Bounded 1) ]
  in
  let p' = Pattern_io.of_string (Pattern_io.to_string p) in
  Alcotest.(check int) "nodes" (Pattern.node_count p) (Pattern.node_count p');
  Alcotest.(check bool) "labels" true
    (Array.init 3 (Pattern.label p) = Array.init 3 (Pattern.label p'));
  Alcotest.(check bool) "edges" true
    (List.sort compare (Pattern.edges p) = List.sort compare (Pattern.edges p'))

let pattern_io_parse () =
  let p = Pattern_io.of_string "n 2\nl 0 5\ne 0 1 *\ne 1 0 2 # cycle\n" in
  Alcotest.(check int) "label read" 5 (Pattern.label p 0);
  Alcotest.(check bool) "star read" true
    (List.mem (0, 1, Pattern.Unbounded) (Pattern.edges p));
  Alcotest.(check bool) "bound read" true
    (List.mem (1, 0, Pattern.Bounded 2) (Pattern.edges p))

let pattern_io_errors () =
  let expect_err s =
    match Pattern_io.of_string s with
    | exception Pattern_io.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for: " ^ s)
  in
  expect_err "e 0 1 2\n";
  expect_err "n 1\ne 0 5 1\n";
  expect_err "n 1\ne 0 0 0\n";
  expect_err "n 1\ne 0 0 -3\n";
  expect_err "n 1\ne 0 0 five\n";
  expect_err "n 1\nx 0\n";
  Alcotest.check_raises "node count over the limit"
    (Pattern_io.Parse_error (1, "node count 100000000000 exceeds the limit of 4"))
    (fun () -> ignore (Pattern_io.of_string ~max_nodes:4 "n 100000000000"));
  Testutil.check_int "node count at the limit" 4
    (Pattern.node_count (Pattern_io.of_string ~max_nodes:4 "n 4"))

let pattern_io_props =
  [
    qtest "to_string/of_string roundtrip"
      (Testutil.arbitrary_graph_pattern ())
      (fun (_, p) ->
        let p' = Pattern_io.of_string (Pattern_io.to_string p) in
        Pattern.node_count p = Pattern.node_count p'
        && List.sort compare (Pattern.edges p)
           = List.sort compare (Pattern.edges p')
        && Array.init (Pattern.node_count p) (Pattern.label p)
           = Array.init (Pattern.node_count p') (Pattern.label p'));
  ]

(* ------------------------------------------------------------------ *)
(* One-pass refinement of acyclic patterns against the cubic oracle *)

type shape = Tree | Dag | Two_cycle | Self_loop

let shape_name = function
  | Tree -> "tree"
  | Dag -> "dag"
  | Two_cycle -> "2-cycle"
  | Self_loop -> "self-loop"

(* A pattern of a given shape over [np] nodes.  The shape is built on
   positions (every edge runs from a lower to a higher position) and the
   positions are then renumbered by a random permutation, so a parent's
   number lies before or after its children's.  [Two_cycle] adds the
   reverse of one edge and [Self_loop] a loop, which sends refinement down
   the fixpoint path.  Bounds are drawn from 1, 2 and [*]; with [absent],
   one pattern node carries a label that no data node has. *)
let shaped_pattern_gen g =
  let open QCheck2.Gen in
  let bound = oneofl [ Pattern.Bounded 1; Pattern.Bounded 2; Pattern.Unbounded ] in
  let* shape = oneofl [ Tree; Dag; Two_cycle; Self_loop ] in
  let* np = int_range (match shape with Two_cycle -> 2 | _ -> 1) 5 in
  let* perm = shuffle_a (Array.init np Fun.id) in
  let* tree =
    flatten_l
      (List.init (np - 1) (fun i ->
           let child = i + 1 in
           let* parent = int_range 0 i in
           let* b = bound in
           pure (parent, child, b)))
  in
  let* extra =
    match shape with
    | Tree -> pure []
    | Dag | Two_cycle | Self_loop ->
        list_size (int_range 0 3)
          (let* a = int_range 0 (np - 1) in
           let* c = int_range 0 (np - 1) in
           let* b = bound in
           pure (Mono.imin a c, Mono.imax a c, b))
        >|= List.filter (fun (a, c, _) -> a < c)
  in
  let acyclic = tree @ extra in
  let* closing =
    match (shape, acyclic) with
    | Two_cycle, (a, c, _) :: _ ->
        let* b = bound in
        pure [ (c, a, b) ]
    | Self_loop, _ ->
        let* u = int_range 0 (np - 1) in
        let* b = bound in
        pure [ (u, u, b) ]
    | (Tree | Dag | Two_cycle), _ -> pure []
  in
  let lc = Digraph.label_count g in
  let* labels = array_size (pure np) (int_range 0 (lc - 1)) in
  let* absent = float_range 0.0 1.0 >|= fun x -> x < 0.15 in
  let* absent_at = int_range 0 (np - 1) in
  let labels =
    Array.mapi (fun u l -> if absent && u = perm.(absent_at) then lc else l) labels
  in
  let edges =
    List.map (fun (a, c, b) -> (perm.(a), perm.(c), b)) (acyclic @ closing)
  in
  pure (shape, absent, Pattern.make ~n:np ~labels ~edges)

let shaped_gen =
  let open QCheck2.Gen in
  let* g = Testutil.digraph_gen ~max_n:16 () in
  let* shape, absent, p = shaped_pattern_gen g in
  pure (g, shape, absent, p)

let shaped_print (g, shape, absent, p) =
  Format.asprintf "%s%s@.%a@.%a" (shape_name shape)
    (if absent then " (absent label)" else "")
    Digraph.pp g Pattern.pp p

let one_pass_props =
  [
    qtest ~count:1000 "eval equals eval_matrix on shaped patterns"
      (shaped_gen, shaped_print) (fun (g, _, absent, p) ->
        let r = Bounded_sim.eval p g in
        Pattern.result_equal r (Bounded_sim.eval_matrix p g)
        && ((not absent) || r = None));
    (* The stored order is a permutation with every edge running from an
       earlier node to a later one; a cyclic pattern has none, and an
       index outside it is rejected. *)
    qtest ~count:1000 "topo_node orders shaped patterns parents first"
      (shaped_gen, shaped_print) (fun (_, shape, _, p) ->
        let np = Pattern.node_count p in
        let rejects i =
          match Pattern.topo_node p i with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        rejects (-1) && rejects np
        &&
        match shape with
        | Two_cycle | Self_loop -> (not (Pattern.is_acyclic p)) && rejects 0
        | Tree | Dag ->
            Pattern.is_acyclic p
            &&
            let pos = Array.make np (-1) in
            for i = 0 to np - 1 do
              pos.(Pattern.topo_node p i) <- i
            done;
            Array.for_all (fun i -> i >= 0) pos
            && List.for_all (fun (u, u', _) -> pos.(u) < pos.(u')) (Pattern.edges p));
  ]

(* One round trip through Inc_match on the same shapes, cyclic ones
   included: [refine] restarts from the previous match. *)
let shaped_inc_match =
  qtest ~count:300 "Inc_match equals eval after an update on shaped patterns"
    ( (let open QCheck2.Gen in
       let* g, shape, absent, p = shaped_gen in
       let n = Digraph.n g in
       let* updates =
         list_size (int_range 1 6)
           (let* u = int_range 0 (n - 1) in
            let* v = int_range 0 (n - 1) in
            let* ins = bool in
            pure
              (if ins then Edge_update.Insert (u, v)
               else Edge_update.Delete (u, v)))
       in
       pure ((g, shape, absent, p), updates)),
      fun (x, updates) ->
        Format.asprintf "%s@.updates: %a" (shaped_print x)
          (Format.pp_print_list ~pp_sep:Format.pp_print_space Edge_update.pp)
          updates )
    (fun ((g, _, _, p), updates) ->
      let im = Inc_match.create p g in
      let got = Inc_match.apply im updates in
      Pattern.result_equal got (Bounded_sim.eval p (Inc_match.graph im)))

(* ------------------------------------------------------------------ *)
(* Bounds k and [*]: one backward search per edge, against the cubic
   oracle *)

(* Graphs of up to 40 nodes made mostly of long paths: one to four
   chains of 4 to 12 random nodes and a few random edges, so that many
   distances exceed 3 and a depth cut at 2 or 3 excludes nodes that [*]
   keeps. *)
let path_rich_gen =
  let open QCheck2.Gen in
  let* n = int_range 4 40 in
  let* label_count = int_range 1 3 in
  let* labels = array_size (pure n) (int_range 0 (label_count - 1)) in
  let node = int_range 0 (n - 1) in
  let* chains = list_size (int_range 1 4) (list_size (int_range 4 12) node) in
  let* extra = list_size (int_range 0 (n / 4)) (pair node node) in
  let rec links = function
    | a :: (b :: _ as rest) -> (a, b) :: links rest
    | [ _ ] | [] -> []
  in
  pure (Digraph.make ~n ~labels (List.concat_map links chains @ extra))

let path_rich_shaped_gen =
  let open QCheck2.Gen in
  let* g = path_rich_gen in
  let* shape, absent, p = shaped_pattern_gen g in
  pure (g, shape, absent, p)

let far_bounds = [ Pattern.Bounded 2; Pattern.Bounded 3; Pattern.Unbounded ]

let rows np row = Array.init np (fun u -> Bitset.to_array (row u))

(* The rows [Compress_bisim.write_row] writes for the last answer, read
   back from their u32 bytes; each must fill exactly [row_length], at an
   offset, and leave the sentinel bytes around it as they were. *)
let written_rows cs np =
  Array.init np (fun u ->
      let k = Compress_bisim.row_length cs u in
      let b = Bytes.make ((4 * k) + 11) '\xa5' in
      let stop = Compress_bisim.write_row cs u b 3 in
      if stop <> 3 + (4 * k) then
        Alcotest.failf "row %d: wrote %d bytes for %d ids" u (stop - 3) k;
      if Bytes.sub_string b 0 3 <> "\xa5\xa5\xa5"
         || Bytes.sub_string b stop 8 <> String.make 8 '\xa5'
      then Alcotest.failf "row %d: a byte outside the row changed" u;
      Array.init k (fun i -> Int32.to_int (Bytes.get_int32_le b (3 + (4 * i)))))

let answer_on_gr cs p =
  if Compress_bisim.answer_into cs p then
    Some (written_rows cs (Pattern.node_count p))
  else None

(* The pattern as drawn (bounds 1, 2 and [*] mixed), then with every
   edge at bound 2, at 3 and at [*]: [eval], [refine], [match_into] on
   one reused scratch, and [Compress_bisim.answer_into] on Gr (Theorem
   4) all give [eval_matrix]'s answer on G. *)
let bounds_props =
  [
    qtest ~count:300 "eval equals eval_matrix for bounds 2, 3 and *"
      (path_rich_shaped_gen, shaped_print) (fun (g, _, absent, p) ->
        let s = Bounded_sim.scratch g in
        let c = Compress_bisim.compress g in
        let cs = Compress_bisim.scratch c in
        let np = Pattern.node_count p in
        List.for_all
          (fun p ->
            let oracle = Bounded_sim.eval_matrix p g in
            let into =
              if Bounded_sim.match_into s p then
                Some (rows np (Bounded_sim.matched s))
              else None
            in
            let on_gr = answer_on_gr cs p in
            Pattern.result_equal (Bounded_sim.eval p g) oracle
            && Pattern.result_equal
                 (Bounded_sim.refine p g
                    ~cand:(Bounded_sim.label_candidates p g))
                 oracle
            && Pattern.result_equal into oracle
            && Pattern.result_equal on_gr oracle
            && ((not absent) || oracle = None))
          (p :: List.map (Pattern.with_all_bounds p) far_bounds));
  ]

(* Gr with its hypernodes numbered by a random permutation, so each
   label's hypernodes are no longer one id range: the pattern path on it
   ([fill_labels] one id at a time, [keep_meeting] over a wide range of
   cand(u')) gives the rows it gives on the label-ordered Gr, and both
   equal [eval_matrix] on G, for bound 1, 2, 3 and [*]. *)
let permuted_gr c seed =
  let gr = Compressed.graph c in
  let k = Digraph.n gr in
  let perm = Array.init k Fun.id in
  let rng = Random.State.make [| seed |] in
  for i = k - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let labels = Array.make k 0 in
  for h = 0 to k - 1 do
    labels.(perm.(h)) <- Digraph.label gr h
  done;
  let edges =
    List.map (fun (h, h') -> (perm.(h), perm.(h'))) (Testutil.edges_list gr)
  in
  Compressed.v
    ~graph:(Digraph.make ~n:k ~labels edges)
    ~node_map:(Array.init (Compressed.original_n c) (fun v -> perm.(Compressed.hypernode c v)))

(* Every data node relabelled 0: each label's block is all of V, so a
   row under half of V takes the expanding path. *)
let one_label g =
  Digraph.make ~n:(Digraph.n g) ~labels:(Array.make (Digraph.n g) 0)
    (Testutil.edges_list g)

let one_label_gen =
  let open QCheck2.Gen in
  let* one = bool in
  let* g = path_rich_gen >|= fun g -> if one then one_label g else g in
  let* shape, absent, p = shaped_pattern_gen g in
  let+ seed = int_range 0 10_000 in
  ((g, shape, absent, p), seed)

(* The rows written on the label-ordered and on a permuted Gr, for the
   pattern as drawn and at every bound 1, 2, 3 and [*], equal
   [Compressed.expand_result] of the match on Gr and [eval_matrix] on G;
   [None] (some pattern node unmatched) included.  Counts the rows each
   path of [write_row] wrote. *)
let gr_rows_prop ~scanned ~expanded ((g, _, _, p), seed) =
  let c = Compress_bisim.compress g in
  let scratches =
    [ Compress_bisim.scratch c; Compress_bisim.scratch (permuted_gr c seed) ]
  in
  List.for_all
    (fun p ->
      let oracle = Bounded_sim.eval_matrix p g in
      Pattern.result_equal
        (Compressed.expand_result c (Bounded_sim.eval p (Compressed.graph c)))
        oracle
      && List.for_all
           (fun cs ->
             let got = answer_on_gr cs p in
             if got <> None then
               for u = 0 to Pattern.node_count p - 1 do
                 incr (if Compress_bisim.scans cs u then scanned else expanded)
               done;
             Pattern.result_equal got oracle)
           scratches)
    (p :: List.map (Pattern.with_all_bounds p) (Pattern.Bounded 1 :: far_bounds))

let gr_rows_print (x, seed) = Printf.sprintf "%s\nseed %d" (shaped_print x) seed

let permuted_props =
  qtest ~count:300 "pattern rows on a permuted Gr equal the label-ordered Gr and G"
    ( (let open QCheck2.Gen in
       pair path_rich_shaped_gen (int_range 0 10_000)),
      gr_rows_print )
    (gr_rows_prop ~scanned:(ref 0) ~expanded:(ref 0))

(* ------------------------------------------------------------------ *)
(* P on the daemon's path: rows written from the match *)

let p_rows_both_paths () =
  let scanned = ref 0 and expanded = ref 0 in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 30 |])
    (QCheck2.Test.make ~count:300
       ~name:"written rows equal expand_result and eval_matrix"
       ~print:gr_rows_print one_label_gen
       (gr_rows_prop ~scanned ~expanded));
  if !scanned = 0 || !expanded = 0 then
    Alcotest.failf "rows scanned %d, expanded %d: both paths must run" !scanned
      !expanded

(* A star, one label: the centre alone has a successor, so row 0 is one
   id of a ten-id block and expands, while row 1 is all ten and scans;
   smaller stars pin the crossover.  Then a block that ends at the last
   id of V and at the last pair: the scan writes up to there and not a
   byte past. *)
let p_rows_edges () =
  let check name cs p want =
    Alcotest.(check (option (array (array int)))) name want (answer_on_gr cs p)
  in
  let star = Digraph.make ~n:10 (List.init 9 (fun i -> (0, i + 1))) in
  let cs = Compress_bisim.scratch (Compress_bisim.compress star) in
  let edge = Pattern.make ~n:2 ~labels:[| 0; 0 |] ~edges:[ (0, 1, Pattern.Bounded 1) ] in
  check "star" cs edge (Some [| [| 0 |]; Array.init 10 Fun.id |]);
  Alcotest.(check (list bool)) "row 0 expands, row 1 scans" [ false; true ]
    [ Compress_bisim.scans cs 0; Compress_bisim.scans cs 1 ];
  (* The crossover, on fewer than 63 ids, so no word term: a one-id
     row scans a block of 3 and expands one of 4. *)
  List.iter
    (fun (n, want) ->
      let g = Digraph.make ~n (List.init (n - 1) (fun i -> (0, i + 1))) in
      let cs = Compress_bisim.scratch (Compress_bisim.compress g) in
      ignore (answer_on_gr cs edge : Pattern.result);
      Alcotest.(check bool)
        (Printf.sprintf "one id in a block of %d scans" n)
        want (Compress_bisim.scans cs 0))
    [ (3, true); (4, false) ];
  let g = Digraph.make ~n:5 ~labels:[| 0; 1; 0; 1; 1 |] [ (0, 1); (2, 4); (3, 4) ] in
  let cs = Compress_bisim.scratch (Compress_bisim.compress g) in
  let node l = Pattern.make ~n:1 ~labels:[| l |] ~edges:[] in
  check "last block" cs (node 1) (Some [| [| 1; 3; 4 |] |]);
  Alcotest.(check bool) "it scans" true (Compress_bisim.scans cs 0);
  check "first block" cs (node 0) (Some [| [| 0; 2 |] |]);
  check "absent label" cs (node 2) None;
  check "no witness" cs
    (Pattern.make ~n:2 ~labels:[| 1; 0 |] ~edges:[ (0, 1, Pattern.Bounded 1) ])
    None

(* Once the scratch has met the patterns, answering one and writing its
   rows allocates nothing: the daemon's pattern path between decode and
   the socket.  Bound-1 patterns, as the daemon serves. *)
let p_rows_no_alloc () =
  let rng = Random.State.make [| 30 |] in
  let g =
    Generators.with_random_labels rng
      (Generators.erdos_renyi rng ~n:3_000 ~m:12_000)
      ~label_count:6
  in
  let c = Compress_bisim.compress g in
  let cs = Compress_bisim.scratch c in
  let patterns =
    List.init 40 (fun _ -> Pattern_gen.anchored rng g ~nodes:4 ~edges:3 ~max_bound:1)
  in
  let b = Bytes.create (4 * Compressed.original_n c) in
  let answer p =
    if Compress_bisim.answer_into cs p then
      for u = 0 to Pattern.node_count p - 1 do
        ignore (Compress_bisim.write_row cs u b 0 : int)
      done
  in
  List.iter answer patterns;
  let before = Gc.minor_words () in
  List.iter answer patterns;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "%.0f minor words for %d warm patterns" words
      (List.length patterns)

(* Insertions grow the match along paths of any length into the
   inserted edges' sources. *)
let bounds_inc_match =
  qtest ~count:200 "Inc_match equals eval_matrix over insertion batches"
    ( (let open QCheck2.Gen in
       let* ((g, _, _, _) as x) = path_rich_shaped_gen in
       let node = int_range 0 (Digraph.n g - 1) in
       let insert = map2 (fun u v -> Edge_update.Insert (u, v)) node node in
       let* batches =
         list_size (int_range 1 3) (list_size (int_range 1 6) insert)
       in
       pure (x, batches)),
      fun (x, batches) ->
        Format.asprintf "%s@.batches: %a" (shaped_print x)
          (Format.pp_print_list ~pp_sep:Format.pp_print_space Edge_update.pp)
          (List.concat batches) )
    (fun ((g, _, _, p), batches) ->
      List.for_all
        (fun b ->
          let p = Pattern.with_all_bounds p b in
          let im = Inc_match.create p g in
          List.for_all
            (fun batch ->
              let got = Inc_match.apply im batch in
              Pattern.result_equal got
                (Bounded_sim.eval_matrix p (Inc_match.graph im)))
            batches)
        far_bounds)

(* On a path, bound 2 stops short of the B two edges on, 3 reaches it,
   and [*] reaches the B after it too. *)
let bsim_depth_cut () =
  let g =
    Digraph.make ~n:5 ~labels:[| 0; 2; 2; 1; 1 |]
      [ (0, 1); (1, 2); (2, 3); (3, 4) ]
  in
  let check name want edges =
    Alcotest.(check (option (array (array int)))) name want
      (Bounded_sim.eval (Pattern.make ~n:2 ~labels:[| 0; 1 |] ~edges) g)
  in
  check "bound 2" None [ (0, 1, Pattern.Bounded 2) ];
  let a_and_bs = Some [| [| 0 |]; [| 3; 4 |] |] in
  check "bound 3" a_and_bs [ (0, 1, Pattern.Bounded 3) ];
  check "bound *" a_and_bs [ (0, 1, Pattern.Unbounded) ];
  (* With a B -> B edge, the last B has no B after it, so the B before
     it loses its witness too. *)
  check "self-loop pattern, bound 3" None
    [ (0, 1, Pattern.Bounded 3); (1, 1, Pattern.Bounded 3) ]

(* A bound k or [*] edge takes space linear in the graph: on 20,000
   nodes one [eval] allocates a few words per node and edge, where a
   descendant bitset per node would take |V|^2/8 bytes, 50 MB; and
   [match_into] on a scratch that has met the pattern allocates a few
   words per query at most, none per node and no array: the topological
   order is the pattern's own. *)
let bsim_linear_space () =
  let rng = Random.State.make [| 24 |] in
  let g =
    Generators.with_random_labels rng
      (Generators.erdos_renyi rng ~n:20_000 ~m:60_000)
      ~label_count:2
  in
  let linear = 8 * (Digraph.n g + Digraph.m g) in
  let s = Bounded_sim.scratch g in
  List.iter
    (fun b ->
      let p = Pattern.make ~n:2 ~labels:[| 0; 1 |] ~edges:[ (0, 1, b) ] in
      let before = Gc.allocated_bytes () in
      let r = Bounded_sim.eval p g in
      let used = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) "matches" true (r <> None);
      if used >= 4. *. float_of_int linear then
        Alcotest.failf "eval allocated %.0f bytes, 4 x 8(|V| + |E|) is %d" used
          (4 * linear);
      ignore (Bounded_sim.match_into s p : bool);
      let before = Gc.minor_words () in
      ignore (Bounded_sim.match_into s p : bool);
      let words = Gc.minor_words () -. before in
      (* Measured: 2 words for bound 3, its optional depth, and 0 for
         [*]. *)
      if words >= 16. then
        Alcotest.failf "match_into allocated %.0f words on %d nodes" words
          (Digraph.n g))
    [ Pattern.Bounded 3; Pattern.Unbounded ]

(* ------------------------------------------------------------------ *)
(* The successor-label filter of bound-1 edges *)

type sink_shape = Tree | Looped_sink | Cycle_and_sink

let sink_shape_name = function
  | Tree -> "tree"
  | Looped_sink -> "self-loop on a would-be sink"
  | Cycle_and_sink -> "cycle with a sink"

(* A tree on positions 0 .. np - 2 with a sink, position np - 1, under
   the root; position np - 2 is a leaf too.  [Looped_sink] puts a
   self-loop on the sink, [Cycle_and_sink] closes a cycle from np - 2
   back to the root.  Most bounds are 1, some 2, so a bound-1 edge meets
   targets still whole and targets already pruned.  Labels are drawn
   from the graph's nodes; with [odd], the sink's label is one no node
   carries: [label_count g] or -1.  Positions are renumbered at random,
   as in [shaped_pattern_gen]. *)
let sink_pattern_gen g =
  let open QCheck2.Gen in
  let bound = frequencyl [ (4, Pattern.Bounded 1); (1, Pattern.Bounded 2) ] in
  let* shape = oneofl [ Tree; Looped_sink; Cycle_and_sink ] in
  let* np = int_range 3 6 in
  let* perm = shuffle_a (Array.init np Fun.id) in
  let* tree =
    flatten_l
      (List.init (np - 2) (fun i ->
           let* parent = int_range 0 i in
           let* b = bound in
           pure (parent, i + 1, b)))
  in
  let* b = bound in
  let sink = (0, np - 1, b) in
  let* b = bound in
  let closing =
    match shape with
    | Tree -> []
    | Looped_sink -> [ (np - 1, np - 1, b) ]
    | Cycle_and_sink -> [ (np - 2, 0, b) ]
  in
  let* labels =
    array_size (pure np) (int_range 0 (Digraph.n g - 1) >|= Digraph.label g)
  in
  let* odd =
    frequencyl
      [ (4, None); (1, Some (Digraph.label_count g)); (1, Some (-1)) ]
  in
  Option.iter (fun l -> labels.(np - 1) <- l) odd;
  let edges =
    List.map
      (fun (a, c, b) -> (perm.(a), perm.(c), b))
      ((sink :: tree) @ closing)
  in
  let labels = Array.init np (fun u -> labels.(perm.(u))) in
  pure (shape, odd, Pattern.make ~n:np ~labels ~edges)

(* A path-rich graph, or the same graph with one label, and a seed for
   [permuted_gr]. *)
let sink_gen =
  let open QCheck2.Gen in
  let* one = bool in
  let* g = path_rich_gen >|= fun g -> if one then one_label g else g in
  let* shape, odd, p = sink_pattern_gen g in
  let+ seed = int_range 0 10_000 in
  (g, shape, odd, p, seed)

let sink_print (g, shape, odd, p, seed) =
  Format.asprintf "%s%s, seed %d@.%a@.%a" (sink_shape_name shape)
    (match odd with Some l -> Printf.sprintf " (sink label %d)" l | None -> "")
    seed Digraph.pp g Pattern.pp p

(* The pattern, then with every edge at bound 1, on one scratch per
   graph, so the second query starts from the first one's sets:
   [match_into] on G, and on the label-ordered and a permuted Gr
   expanded by P, and [answer_into]'s written rows on both Gr, all equal
   [eval_matrix] on G. *)
let filter_prop (g, _, odd, p, seed) =
  let c = Compress_bisim.compress g in
  let grs = [ c; permuted_gr c seed ] in
  let sims =
    List.map (fun c -> (c, Bounded_sim.scratch (Compressed.graph c))) grs
  in
  let on_g = Bounded_sim.scratch g in
  let answers = List.map Compress_bisim.scratch grs in
  let matched s p =
    if Bounded_sim.match_into s p then
      Some (rows (Pattern.node_count p) (Bounded_sim.matched s))
    else None
  in
  List.for_all
    (fun p ->
      let oracle = Bounded_sim.eval_matrix p g in
      Pattern.result_equal (matched on_g p) oracle
      && List.for_all
           (fun (c, s) ->
             Pattern.result_equal
               (Compressed.expand_result c (matched s p))
               oracle)
           sims
      && List.for_all
           (fun cs -> Pattern.result_equal (answer_on_gr cs p) oracle)
           answers
      && (odd = None || oracle = None))
    [ p; Pattern.with_all_bounds p (Pattern.Bounded 1) ]

let filter_props =
  qtest ~count:500 "match_into and answer_into rows equal eval_matrix on sinks"
    (sink_gen, sink_print) filter_prop

(* Labels 0 and 300 on 12 nodes: 301 one-word sets outweigh the
   out-CSR's 12 + 11 + 1 words, so no filter is built and bound-1 edges
   take the successor scan alone, with the same answers. *)
let filter_size_cap () =
  let n = 12 in
  let labels = Array.init n (fun v -> if v mod 3 = 0 then 300 else 0) in
  let g = Digraph.make ~n ~labels (List.init (n - 1) (fun v -> (v, v + 1))) in
  Alcotest.(check int) "no filter over the cap" 0
    (Array.length (Digraph.succ_labelled g));
  let under = Digraph.make ~n (List.init (n - 1) (fun v -> (v, v + 1))) in
  Alcotest.(check int) "one set a label under it" 1
    (Array.length (Digraph.succ_labelled under));
  let s = Bounded_sim.scratch g in
  let b1 = Pattern.Bounded 1 in
  List.iter
    (fun (name, p) ->
      let got =
        if Bounded_sim.match_into s p then
          Some (rows (Pattern.node_count p) (Bounded_sim.matched s))
        else None
      in
      Alcotest.(check (option (array (array int)))) name
        (Bounded_sim.eval_matrix p g) got)
    [
      ( "star",
        Pattern.make ~n:3 ~labels:[| 0; 300; 0 |]
          ~edges:[ (0, 1, b1); (0, 2, b1) ] );
      ( "looped sink",
        Pattern.make ~n:2 ~labels:[| 300; 0 |]
          ~edges:[ (0, 1, b1); (1, 1, b1) ] );
      ( "absent sink",
        Pattern.make ~n:2 ~labels:[| 0; 5 |] ~edges:[ (0, 1, b1) ] );
      ( "negative sink",
        Pattern.make ~n:2 ~labels:[| 0; -1 |] ~edges:[ (0, 1, b1) ] );
    ]

(* A 20,000-node pattern grows a scratch by a bitset and two slots a
   node; the next, 4-node query must drop all but 64 of them.  Runs
   [query] on a scratch [make g] with the small pattern, the wide one and
   the small one again, and returns the scratch and the small pattern. *)
let after_wide_pattern make query =
  let n = 100 in
  let g =
    Digraph.make ~n ~labels:(Array.init n (fun v -> v mod 3))
      (List.init (n - 1) (fun v -> (v, v + 1)))
  in
  let s = make g in
  let b1 = Pattern.Bounded 1 in
  let small =
    Pattern.make ~n:4 ~labels:[| 0; 1; 2; 1 |]
      ~edges:[ (0, 1, b1); (1, 2, b1); (0, 3, b1) ]
  in
  let wide_n = 20_000 in
  let wide = Pattern.make ~n:wide_n ~labels:(Array.make wide_n 0) ~edges:[] in
  let words () = Obj.reachable_words (Obj.repr s) in
  query s small;
  let first = words () in
  query s wide;
  let per_node = (words () - first) / (wide_n - 4) in
  query s small;
  let back = words () in
  if back - first > 64 * per_node then
    Alcotest.failf "%d words after a wide pattern, %d before; %d a pattern node"
      back first per_node;
  (s, small)

(* The steady state after the wide pattern allocates nothing. *)
let bsim_scratch_shrinks () =
  let matches s p = ignore (Bounded_sim.match_into s p : bool) in
  let s, small = after_wide_pattern Bounded_sim.scratch matches in
  let before = Gc.minor_words () in
  matches s small;
  matches s small;
  let allocated = Gc.minor_words () -. before in
  if allocated > 0. then
    Alcotest.failf "%.0f minor words for two warm queries" allocated

let cbisim_scratch_shrinks () =
  ignore
    (after_wide_pattern
       (fun g -> Compress_bisim.scratch (Compress_bisim.compress g))
       (fun s p -> ignore (Compress_bisim.answer_into s p : bool)))

(* ------------------------------------------------------------------ *)
(* Incremental match *)

let inc_match_props =
  let print_gpu ((g, p), updates) =
    Format.asprintf "%a@.%a@.%a" Digraph.pp g Pattern.pp p
      (Format.pp_print_list ~pp_sep:Format.pp_print_space Edge_update.pp)
      (List.concat updates)
  in
  let arb =
    ( (let open QCheck2.Gen in
       let* g, p = Testutil.graph_pattern_gen () in
       let n = Digraph.n g in
       let upd =
         let* u = int_range 0 (n - 1) in
         let* v = int_range 0 (n - 1) in
         let* ins = bool in
         pure
           (if ins then Edge_update.Insert (u, v) else Edge_update.Delete (u, v))
       in
       let* b1 = list_size (int_range 0 8) upd in
       let* b2 = list_size (int_range 0 8) upd in
       pure ((g, p), [ b1; b2 ])),
      print_gpu )
  in
  [
    qtest ~count:300 "IncBMatch equals from-scratch across batches" arb
      (fun ((g, p), batches) ->
        let im = Inc_match.create p g in
        List.for_all
          (fun batch ->
            let got = Inc_match.apply im batch in
            Pattern.result_equal got (Bounded_sim.eval p (Inc_match.graph im)))
          batches);
    qtest "create equals direct eval" (Testutil.arbitrary_graph_pattern ())
      (fun (g, p) ->
        Pattern.result_equal (Inc_match.result (Inc_match.create p g))
          (Bounded_sim.eval p g));
  ]

(* ------------------------------------------------------------------ *)
(* Pattern generator *)

let pattern_gen_props =
  [
    qtest "random patterns are well formed" arb_g (fun g ->
        if Digraph.n g = 0 then true
        else begin
          let rng = Random.State.make [| 11 |] in
          let p =
            Pattern_gen.random rng g ~nodes:4 ~edges:5 ~max_bound:3
              ~unbounded_prob:0.3
          in
          Pattern.node_count p = 4
          && Pattern.edge_count p >= 3
          && List.for_all
               (function
                 | _, _, Pattern.Bounded k -> k <= 3
                 | _, _, Pattern.Unbounded -> true)
               (Pattern.edges p)
        end);
    qtest "anchored patterns always match" arb_g (fun g ->
        if Digraph.n g = 0 then true
        else begin
          let rng = Random.State.make [| 12 |] in
          let p = Pattern_gen.anchored rng g ~nodes:4 ~edges:5 ~max_bound:3 in
          Bounded_sim.eval p g <> None
        end);
    qtest "generator is deterministic per seed" arb_g (fun g ->
        if Digraph.n g = 0 then true
        else begin
          let mk () =
            Pattern_gen.random (Random.State.make [| 5 |]) g ~nodes:3 ~edges:3
              ~max_bound:2 ~unbounded_prob:0.2
          in
          let p1 = mk () and p2 = mk () in
          Pattern.edges p1 = Pattern.edges p2
          && Array.init (Pattern.node_count p1) (Pattern.label p1)
             = Array.init (Pattern.node_count p2) (Pattern.label p2)
        end);
  ]

let () =
  Alcotest.run "query"
    [
      ( "reachability",
        [
          Alcotest.test_case "basics" `Quick reach_unit;
          Alcotest.test_case "random pairs" `Quick random_pairs_unit;
        ]
        @ reach_props );
      ( "two_hop",
        Alcotest.test_case "all pairs" `Quick two_hop_all_pairs :: two_hop_props
      );
      ( "grail",
        Alcotest.test_case "all pairs" `Quick grail_all_pairs :: grail_props );
      ( "tree_cover",
        Alcotest.test_case "all pairs" `Quick tree_cover_all_pairs
        :: tree_cover_props );
      ( "pattern",
        [
          Alcotest.test_case "basics" `Quick pattern_unit;
          Alcotest.test_case "errors" `Quick pattern_errors;
          Alcotest.test_case "results" `Quick result_ops;
        ] );
      ( "bounded_sim",
        [
          Alcotest.test_case "basic example" `Quick bsim_example_basic;
          Alcotest.test_case "cycle support" `Quick bsim_cycle_support;
          Alcotest.test_case "empty pattern" `Quick bsim_empty_pattern;
          Alcotest.test_case "recommendation (Example 1)" `Quick bsim_recommendation;
          Alcotest.test_case "nonempty path semantics" `Quick bsim_nonempty_path_semantics;
          Alcotest.test_case "simulation rejects bounds" `Quick sim_rejects_bounds;
          Alcotest.test_case "depth cut on a path" `Quick bsim_depth_cut;
          Alcotest.test_case "linear space for bounds 3 and *" `Quick
            bsim_linear_space;
          Alcotest.test_case "successor-label filter over its size cap" `Quick
            filter_size_cap;
          Alcotest.test_case "scratch comes back after a wide pattern" `Quick
            bsim_scratch_shrinks;
          Alcotest.test_case "compressB scratch comes back after a wide pattern"
            `Quick cbisim_scratch_shrinks;
        ]
        @ sim_props @ one_pass_props @ bounds_props
        @ [ permuted_props; filter_props ] );
      ( "post_proc",
        [
          Alcotest.test_case "written rows, both paths, against G" `Quick
            p_rows_both_paths;
          Alcotest.test_case "row edges: paths, last block, no match" `Quick
            p_rows_edges;
          Alcotest.test_case "warm pattern allocates nothing" `Quick
            p_rows_no_alloc;
        ] );
      ( "pattern_io",
        [
          Alcotest.test_case "roundtrip" `Quick pattern_io_roundtrip;
          Alcotest.test_case "parse" `Quick pattern_io_parse;
          Alcotest.test_case "errors" `Quick pattern_io_errors;
        ]
        @ pattern_io_props );
      ("inc_match", inc_match_props @ [ shaped_inc_match; bounds_inc_match ]);
      ("pattern_gen", pattern_gen_props);
    ]
