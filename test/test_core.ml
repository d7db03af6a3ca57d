(* Tests for the paper's core contribution: reachability equivalence,
   reachability preserving compression (Theorem 2), graph pattern
   preserving compression (Theorem 4), and the negative results about
   index graphs the paper uses to motivate them. *)

let qtest = Testutil.qtest
let arb_g = Testutil.arbitrary_digraph ()

(* ------------------------------------------------------------------ *)
(* Reachability equivalence relation *)

let reach_equiv_recommendation () =
  let g = Testutil.recommendation () in
  let re = Reach_equiv.compute g in
  let open Testutil.Rec in
  (* Example 2's statements *)
  Alcotest.(check bool) "BSA1 ~ BSA2" true (Reach_equiv.equivalent re bsa1 bsa2);
  Alcotest.(check bool) "MSA1 ~ MSA2" true (Reach_equiv.equivalent re msa1 msa2);
  Alcotest.(check bool) "FA3 !~ FA4 (FA3 reaches C3)" false
    (Reach_equiv.equivalent re fa3 fa4);
  Alcotest.(check bool) "C3 ~ C4" true (Reach_equiv.equivalent re c3 c4);
  Alcotest.(check bool) "C4 ~ C5" true (Reach_equiv.equivalent re c4 c5);
  (* interacting customers sit in their FA's cycle class *)
  Alcotest.(check bool) "C1 ~ FA1 (same SCC)" true
    (Reach_equiv.equivalent re c1 fa1)

(* Regression: an empty signature array has zero classes — [imax 1] used to
   force a phantom class for zero items. *)
let group_by_signature_empty () =
  let class_of, count = Reach_oracle.group_by_signature [||] in
  Alcotest.(check int) "zero classes" 0 count;
  Alcotest.(check (array int)) "no items" [||] class_of;
  let class_of, count = Reach_oracle.group_by_signature [| "a"; "b"; "a" |] in
  Alcotest.(check int) "two classes" 2 count;
  Alcotest.(check (array int)) "first-appearance ids" [| 0; 1; 0 |] class_of

(* [compute] agrees with the naive oracle on classes and cyclic flags, and
   numbers classes exactly: scanning SCC ids in descending order, each new
   class id is one more than the largest seen so far. *)
let reach_equiv_matches_naive g =
  let a = Reach_equiv.compute g and b = Reach_oracle.compute_naive g in
  let same_cyclic =
    List.for_all
      (fun v ->
        a.Reach_equiv.cyclic.(a.Reach_equiv.class_of.(v))
        = b.Reach_equiv.cyclic.(b.Reach_equiv.class_of.(v)))
      (List.init (Digraph.n g) Fun.id)
  in
  let scc = Scc.compute g in
  let seen = ref (-1) and numbered = ref true in
  for c = scc.Scc.count - 1 downto 0 do
    let id = a.Reach_equiv.class_of.(scc.Scc.members.(c).(0)) in
    if id > !seen then begin
      if id <> !seen + 1 then numbered := false;
      seen := id
    end
  done;
  Partition.equivalent a.Reach_equiv.class_of b.Reach_equiv.class_of
  && a.Reach_equiv.count = b.Reach_equiv.count
  && same_cyclic && !numbered
  && !seen + 1 = a.Reach_equiv.count

let reach_equiv_props =
  [
    qtest ~count:300 "optimised equals naive oracle" arb_g
      reach_equiv_matches_naive;
    qtest ~count:300 "optimised equals naive on fan/chain/self-loop shapes"
      Testutil.arbitrary_condensation_shapes reach_equiv_matches_naive;
    qtest "classes share ancestors and descendants" arb_g (fun g ->
        let re = Reach_equiv.compute g in
        let desc = Transitive.descendant_sets g in
        let anc = Reach_oracle.ancestor_sets g in
        let ok = ref true in
        for u = 0 to Digraph.n g - 1 do
          for v = 0 to Digraph.n g - 1 do
            let equal_sets =
              Bitset.equal desc.(u) desc.(v) && Bitset.equal anc.(u) anc.(v)
            in
            if Reach_equiv.equivalent re u v <> equal_sets then ok := false
          done
        done;
        !ok);
    qtest "same SCC implies equivalent" arb_g (fun g ->
        let re = Reach_equiv.compute g in
        let scc = Scc.compute g in
        let ok = ref true in
        for u = 0 to Digraph.n g - 1 do
          for v = 0 to Digraph.n g - 1 do
            if Scc.same_scc scc u v && not (Reach_equiv.equivalent re u v) then
              ok := false
          done
        done;
        !ok);
    qtest "cyclic flag matches nonempty self-reach" arb_g (fun g ->
        let re = Reach_equiv.compute g in
        let ok = ref true in
        for v = 0 to Digraph.n g - 1 do
          if
            re.Reach_equiv.cyclic.(re.Reach_equiv.class_of.(v))
            <> Traversal.bfs_reaches_nonempty g v v
          then ok := false
        done;
        !ok);
    qtest "equivalent members are mutually or never reachable" arb_g (fun g ->
        (* structure exploited by the compressed self-loops *)
        let re = Reach_equiv.compute g in
        let ok = ref true in
        for u = 0 to Digraph.n g - 1 do
          for v = 0 to Digraph.n g - 1 do
            if u <> v && Reach_equiv.equivalent re u v then begin
              let uv = Traversal.bfs_reaches_nonempty g u v in
              let vu = Traversal.bfs_reaches_nonempty g v u in
              if uv <> vu then ok := false
            end
          done
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Reachability preserving compression (Theorem 2) *)

let compress_reach_props =
  [
    qtest ~count:300 "Theorem 2: queries preserved" arb_g (fun g ->
        Verify.reach_preserved g (Compress_reach.compress g));
    qtest "hypernodes are the Re classes" arb_g (fun g ->
        Verify.is_reach_equivalence g (Compress_reach.compress g));
    qtest "compressed never larger" arb_g (fun g ->
        Compressed.size (Compress_reach.compress g) <= Digraph.size g
        || Digraph.size g = 0);
    qtest "well formed" arb_g (fun g ->
        Verify.well_formed (Compress_reach.compress g) ~original:g);
    qtest "paper's Fig 5 algorithm gives the same result" arb_g (fun g ->
        Verify.same_compression
          (Compress_reach.compress g)
          (Compress_reach.compress_paper g));
    qtest "compression is idempotent" arb_g (fun g ->
        if Digraph.n g = 0 then true
        else begin
          (* Gr is fully compressed: compressing it again changes nothing. *)
          let c = Compress_reach.compress g in
          let c2 = Compress_reach.compress (Compressed.graph c) in
          Digraph.n (Compressed.graph c2) = Digraph.n (Compressed.graph c)
          && Digraph.m (Compressed.graph c2) = Digraph.m (Compressed.graph c)
        end);
    qtest "rewriting is the hypernode pair" arb_g (fun g ->
        if Digraph.n g = 0 then true
        else begin
          let c = Compress_reach.compress g in
          let u = 0 and v = Digraph.n g - 1 in
          Compress_reach.rewrite c ~source:u ~target:v
          = (Compressed.hypernode c u, Compressed.hypernode c v)
        end);
    qtest "all evaluators agree on Gr" arb_g (fun g ->
        if Digraph.n g = 0 then true
        else begin
          let c = Compress_reach.compress g in
          let ok = ref true in
          for u = 0 to Digraph.n g - 1 do
            for v = 0 to Digraph.n g - 1 do
              let answers =
                List.map
                  (fun algo -> Compress_reach.answer ~algorithm:algo c ~source:u ~target:v)
                  Reach_query.all_algorithms
              in
              match answers with
              | a :: rest -> if List.exists (fun b -> b <> a) rest then ok := false
              | [] -> ()
            done
          done;
          !ok
        end);
  ]

let compress_reach_recommendation () =
  let g = Testutil.recommendation () in
  let c = Compress_reach.compress g in
  let open Testutil.Rec in
  (* Example 3 spirit: queries work through the rewriting *)
  Alcotest.(check bool) "BSA1 reaches C2" true
    (Compress_reach.answer c ~source:bsa1 ~target:c2);
  Alcotest.(check bool) "C3 does not reach BSA1" false
    (Compress_reach.answer c ~source:c3 ~target:bsa1);
  Alcotest.(check bool) "same class distinct nodes, no path" false
    (Compress_reach.answer c ~source:bsa1 ~target:bsa2);
  Alcotest.(check bool) "same class cyclic pair" true
    (Compress_reach.answer c ~source:c1 ~target:fa1);
  Alcotest.(check bool) "reflexive" true
    (Compress_reach.answer c ~source:c3 ~target:c3)

let bisim_index_not_reach_preserving () =
  (* Sec 3.1: the bisimulation index graph of Fig 4's G2 merges C1, C2 and
     cannot answer QR(C1, E2); reachability compression can. *)
  let g = Testutil.Fig4.g2 () in
  let open Testutil.Fig4 in
  let bisim = Bisimulation.max_bisimulation g in
  Alcotest.(check bool) "C1 ~bisim C2" true (bisim.(c1) = bisim.(c2));
  (* in the bisimulation quotient the merged class reaches E2's class *)
  let bc = Compress_bisim.compress_of_partition g bisim in
  let gq = Compressed.graph bc in
  Alcotest.(check bool) "index graph claims reach" true
    (Traversal.bfs_reaches gq
       (Compressed.hypernode bc c1)
       (Compressed.hypernode bc e2));
  Alcotest.(check bool) "but C1 does not reach E2" false
    (Traversal.bfs_reaches g c1 e2);
  (* the reachability-preserving compression answers correctly *)
  let rc = Compress_reach.compress g in
  Alcotest.(check bool) "compressR keeps them apart" false
    (Compress_reach.answer rc ~source:c1 ~target:e2);
  Alcotest.(check bool) "and preserves the true pair" true
    (Compress_reach.answer rc ~source:c2 ~target:e2)

(* ------------------------------------------------------------------ *)
(* Pattern preserving compression (Theorem 4) *)

let arb_gp = Testutil.arbitrary_graph_pattern ()

let compress_bisim_props =
  [
    qtest ~count:300 "Theorem 4: pattern queries preserved" arb_gp
      (fun (g, p) -> Verify.pattern_preserved p g (Compress_bisim.compress g));
    qtest "hypernodes are the Rb classes" arb_g (fun g ->
        Verify.is_max_bisimulation g (Compress_bisim.compress g));
    qtest "compressed never larger" arb_g (fun g ->
        Compressed.size (Compress_bisim.compress g) <= Digraph.size g
        || Digraph.size g = 0);
    qtest "well formed" arb_g (fun g ->
        Verify.well_formed (Compress_bisim.compress g) ~original:g);
    qtest "labels preserved on hypernodes" arb_g (fun g ->
        let c = Compress_bisim.compress g in
        let gr = Compressed.graph c in
        let ok = ref true in
        for v = 0 to Digraph.n g - 1 do
          if Digraph.label gr (Compressed.hypernode c v) <> Digraph.label g v
          then ok := false
        done;
        !ok);
    qtest "boolean pattern queries need no post-processing" arb_gp
      (fun (g, p) ->
        let c = Compress_bisim.compress g in
        Compress_bisim.answer_boolean p c = Bounded_sim.eval_boolean p g);
    qtest "compression is idempotent" arb_g (fun g ->
        if Digraph.n g = 0 then true
        else begin
          let c = Compress_bisim.compress g in
          let c2 = Compress_bisim.compress (Compressed.graph c) in
          Digraph.n (Compressed.graph c2) = Digraph.n (Compressed.graph c)
          && Digraph.m (Compressed.graph c2) = Digraph.m (Compressed.graph c)
        end);
    qtest "simulation queries preserved too" arb_gp (fun (g, p) ->
        (* graph simulation is the all-bounds-1 special case *)
        let p1 = Pattern.with_all_bounds p (Pattern.Bounded 1) in
        let c = Compress_bisim.compress g in
        Pattern.result_equal (Simulation.eval p1 g)
          (Compressed.expand_result c
             (Simulation.eval p1 (Compressed.graph c))));
  ]

let compress_bisim_recommendation () =
  (* Example 5 + Example 1: evaluating on Gr gives the Example 1 answer. *)
  let g = Testutil.recommendation () in
  let c = Compress_bisim.compress g in
  let p = Testutil.recommendation_pattern () in
  let open Testutil.Rec in
  (match Compress_bisim.answer p c with
  | None -> Alcotest.fail "expected a match on Gr"
  | Some m ->
      Alcotest.(check (array int)) "BSA matches" [| bsa1; bsa2 |] m.(0);
      Alcotest.(check (array int)) "C matches" [| c1; c2 |] m.(1);
      Alcotest.(check (array int)) "FA matches" [| fa1; fa2 |] m.(2));
  (* compression actually shrinks this graph *)
  Alcotest.(check bool) "smaller" true (Compressed.size c < Digraph.size g)

let ak_index_not_pattern_preserving () =
  (* Sec 4.1: on Fig 6's G1, the A(1)-index merges all B nodes reachable
     from the A's, so the pattern {(B,C),(B,D)} overmatches; the
     bisimulation compression returns exactly B1 and B5. *)
  let g = Testutil.Fig6.g1 () in
  let open Testutil.Fig6 in
  let p =
    Pattern.make ~n:3 ~labels:[| l_b; l_cc; l_d |]
      ~edges:[ (0, 1, Pattern.Bounded 1); (0, 2, Pattern.Bounded 1) ]
  in
  (* ground truth *)
  (match Bounded_sim.eval p g with
  | None -> Alcotest.fail "expected B1,B5"
  | Some m -> Alcotest.(check (array int)) "true B matches" [| b1; b5 |] m.(0));
  (* the A(1) index graph (incoming-path blocks) claims more B matches
     than the truth: every B node shares the incoming path A/B *)
  let idx, assignment = Kbisim.index_graph_backward g ~k:1 in
  (match Bounded_sim.eval p idx with
  | None -> Alcotest.fail "index graph should still match"
  | Some m ->
      (* expanding the matched index blocks back to original nodes shows
         the overmatch: B2, B3, B4 ride along with B1 and B5 *)
      let matched_blocks = Array.to_list m.(0) in
      let matched_nodes = ref [] in
      Array.iteri
        (fun v b ->
          if List.mem b matched_blocks then matched_nodes := v :: !matched_nodes)
        assignment;
      Alcotest.(check bool) "A(1)-index overmatches B nodes" true
        (List.exists
           (fun v -> v <> b1 && v <> b5 && Digraph.label g v = l_b)
           !matched_nodes));
  (* while the bisimulation compression is exact *)
  Alcotest.(check bool) "compressB exact" true
    (Verify.pattern_preserved p g (Compress_bisim.compress g))

(* ------------------------------------------------------------------ *)
(* Compressed representation *)

let empty_graph_unit () =
  let g = Digraph.make ~n:0 [] in
  let rc = Compress_reach.compress g in
  Alcotest.(check int) "empty reach Gr" 0 (Digraph.n (Compressed.graph rc));
  let pc = Compress_bisim.compress g in
  Alcotest.(check int) "empty pattern Gr" 0 (Digraph.n (Compressed.graph pc));
  Alcotest.(check bool) "paper algorithm too" true
    (Verify.same_compression rc (Compress_reach.compress_paper g));
  (* incremental on empty graphs is a no-op *)
  let inc = Inc_reach.create g in
  Alcotest.(check bool) "empty inc" true
    (Verify.same_compression rc (Inc_reach.apply inc []))

let single_node_unit () =
  List.iter
    (fun edges ->
      let g = Digraph.make ~n:1 ~labels:[| 3 |] edges in
      let rc = Compress_reach.compress g in
      Alcotest.(check bool) "reach preserved" true (Verify.reach_preserved g rc);
      let pc = Compress_bisim.compress g in
      Alcotest.(check bool) "bisim exact" true (Verify.is_max_bisimulation g pc);
      Alcotest.(check bool) "self-loop mirrored" true
        (Digraph.mem_edge (Compressed.graph rc) 0 0 = (edges <> [])))
    [ []; [ (0, 0) ] ]

(* The members of [h] copied out of the flat member CSR. *)
let members c h =
  let ids, start, len = Compressed.member_slice c h in
  Array.sub ids start len

let compressed_unit () =
  let g = Digraph.make ~n:4 ~labels:[| 0; 0; 1; 1 |] [ (0, 2); (1, 3) ] in
  let c = Compress_bisim.compress g in
  Alcotest.(check int) "original_n" 4 (Compressed.original_n c);
  let h0 = Compressed.hypernode c 0 in
  Alcotest.(check bool) "members sorted" true
    (let ms = members c h0 in
     Array.to_list ms = List.sort compare (Array.to_list ms));
  Alcotest.(check bool) "ratio in (0,1]" true
    (let r = Compressed.ratio c ~original:g in
     r > 0.0 && r <= 1.0)

let compressed_errors () =
  Alcotest.check_raises "empty hypernode"
    (Invalid_argument "Compressed.v: hypernode 1 has no member") (fun () ->
      ignore
        (Compressed.v ~graph:(Digraph.make ~n:2 []) ~node_map:[| 0; 0 |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Compressed.v: hypernode out of range") (fun () ->
      ignore (Compressed.v ~graph:(Digraph.make ~n:1 []) ~node_map:[| 3 |]))

let expand_result_unit () =
  let g = Digraph.make ~n:4 ~labels:[| 0; 0; 1; 1 |] [] in
  let c = Compress_bisim.compress g in
  (* nodes 0,1 collapse; 2,3 collapse *)
  let h01 = Compressed.hypernode c 0 and h23 = Compressed.hypernode c 2 in
  Alcotest.(check bool) "0,1 together" true (h01 = Compressed.hypernode c 1);
  let expanded = Compressed.expand_result c (Some [| [| h01 |]; [| h23 |] |]) in
  (match expanded with
  | Some m ->
      Alcotest.(check (array int)) "expansion of {0,1}" [| 0; 1 |] m.(0);
      Alcotest.(check (array int)) "expansion of {2,3}" [| 2; 3 |] m.(1)
  | None -> Alcotest.fail "expected expansion");
  Alcotest.(check bool) "none stays none" true
    (Compressed.expand_result c None = None)

(* The list-based P that the bitset expansion replaced, kept as its
   reference: concatenate the members of each row's hypernodes, sort,
   dedup. *)
let expand_reference c = function
  | None -> None
  | Some rows ->
      Some
        (Array.map
           (fun hs ->
             Array.to_list hs
             |> List.concat_map (fun h -> Array.to_list (members c h))
             |> List.sort_uniq compare |> Array.of_list)
           rows)

(* A random compression (every hypernode owns at least one member) and a
   random result over its hypernodes: rows in any order, repeats
   allowed, empty rows and [None] included. *)
let compressed_rows_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 300 in
  let* k = int_range 1 n in
  let* extra = array_size (pure (n - k)) (int_range 0 (k - 1)) in
  let* node_map = shuffle_a (Array.append (Array.init k Fun.id) extra) in
  let* rows =
    option ~ratio:0.9
      (array_size (int_range 0 6)
         (array_size (int_range 0 (min k 20)) (int_range 0 (k - 1))))
  in
  pure (Compressed.v ~graph:(Digraph.make ~n:k []) ~node_map, rows)

let compressed_rows_print (c, rows) =
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "node_map: %s\nrows: %s"
    (ints (Array.init (Compressed.original_n c) (Compressed.hypernode c)))
    (match rows with
    | None -> "None"
    | Some rows ->
        String.concat " | " (Array.to_list (Array.map ints rows)))

let strictly_ascending a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

(* The member slices partition V, ascend, and invert [node_map];
   [iter_members] walks the same slice. *)
let members_invert_node_map c =
  let n = Compressed.original_n c and nr = Digraph.n (Compressed.graph c) in
  let seen = Array.make n 0 in
  let ok = ref true in
  for h = 0 to nr - 1 do
    let ms = members c h in
    let walked = ref [] in
    Compressed.iter_members c h (fun v -> walked := v :: !walked);
    if Array.length ms = 0 || not (strictly_ascending ms) then ok := false;
    if List.rev !walked <> Array.to_list ms then ok := false;
    Array.iter
      (fun v ->
        seen.(v) <- seen.(v) + 1;
        if Compressed.hypernode c v <> h then ok := false)
      ms
  done;
  !ok && Array.for_all (fun k -> k = 1) seen

let expand_result_props =
  [
    Testutil.qtest ~count:300 "member slices partition V and invert node_map"
      (compressed_rows_gen, compressed_rows_print) (fun (c, _) ->
        members_invert_node_map c);
    Testutil.qtest ~count:500 "P equals the list-based reference"
      (compressed_rows_gen, compressed_rows_print) (fun (c, rows) ->
        let got = Compressed.expand_result c rows in
        (match got with
        | None -> rows = None
        | Some out -> Array.for_all strictly_ascending out)
        && got = expand_reference c rows);
  ]

(* ------------------------------------------------------------------ *)
(* Compressed graph serialisation *)

let compressed_io_roundtrip () =
  let g = Testutil.recommendation () in
  List.iter
    (fun c ->
      let c' = Compressed_io.of_string (Compressed_io.to_string c) in
      Alcotest.(check bool) "roundtrip identical" true
        (Verify.same_compression c c');
      let cb = Compressed_io.of_binary_string (Compressed_io.to_binary_string c) in
      List.iter
        (fun c' ->
          Alcotest.(check bool) "member CSR survives" true
            (c'.Compressed.member_off = c.Compressed.member_off
            && c'.Compressed.member_ids = c.Compressed.member_ids
            && members_invert_node_map c'))
        [ c'; cb ];
      (* answers survive the roundtrip *)
      Alcotest.(check bool) "queries still preserved" true
        (Verify.reach_preserved g c' || not (Verify.reach_preserved g c)))
    [ Compress_reach.compress g; Compress_bisim.compress g ]

let compressed_io_errors () =
  let expect s =
    match Compressed_io.of_string s with
    | exception Graph_io.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for " ^ s)
  in
  expect "";
  expect "n 1\n";
  expect "n 1\no 2\nm 0 0\n";
  expect "n 1\no 1\nm 0 5\n";
  expect "n 1\no 1\nm 5 0\n";
  expect "n 1\nm 0 0\n";
  expect "n 1\ne 0 3\no 1\nm 0 0\n"

let compressed_io_binary_errors () =
  let c = Compress_reach.compress (Testutil.recommendation ()) in
  List.iter
    (fun graph_format ->
      let s = Compressed_io.to_binary_string ~graph_format c in
      let expect what s =
        match Compressed_io.of_binary_string s with
        | exception Graph_io.Parse_error _ -> ()
        | _ -> Alcotest.fail ("expected Parse_error: " ^ what)
      in
      expect "empty input" "";
      expect "header only" "QPGC";
      expect "truncated node map" (String.sub s 0 (String.length s - 2));
      expect "graph kind where compressed expected"
        ("QPGCG" ^ String.sub s 5 (String.length s - 5));
      expect "version beyond 2"
        ("QPGCC\003" ^ String.sub s 6 (String.length s - 6)))
    [ Digraph.Flat; Digraph.Mapped; Digraph.Varint ]

let compressed_io_props =
  [
    qtest "serialisation roundtrip on random graphs"
      (Testutil.arbitrary_digraph ())
      (fun g ->
        let c = Compress_reach.compress g in
        let c' = Compressed_io.of_string (Compressed_io.to_string c) in
        Verify.same_compression c c'
        &&
        let cb = Compress_bisim.compress g in
        let cb' = Compressed_io.of_string (Compressed_io.to_string cb) in
        Verify.same_compression cb cb');
    qtest "binary roundtrip on random graphs"
      (Testutil.arbitrary_digraph ())
      (fun g ->
        let check c =
          let c' = Compressed_io.of_binary_string (Compressed_io.to_binary_string c) in
          Verify.same_compression c c'
          && Digraph.equal (Compressed.graph c) (Compressed.graph c')
        in
        check (Compress_reach.compress g) && check (Compress_bisim.compress g));
    (* The embedded CSR blob is canonical, so a loaded snapshot must
       re-serialise bit-identically. *)
    qtest "binary serialisation is canonical"
      (Testutil.arbitrary_digraph ())
      (fun g ->
        let s = Compressed_io.to_binary_string (Compress_reach.compress g) in
        let c' = Compressed_io.of_binary_string s in
        String.equal (Compressed_io.to_binary_string c') s);
  ]

(* ------------------------------------------------------------------ *)
(* The verifiers must reject corrupted compressions (mutation tests): a
   checker that accepts everything would make the property tests above
   vacuous. *)

let chain_graph () = Digraph.make ~n:4 ~labels:[| 0; 0; 1; 1 |] [ (0, 2); (1, 3); (2, 3) ]

let verify_rejects_merged_classes () =
  let g = chain_graph () in
  (* merge everything into one hypernode: definitely not Re *)
  let bogus =
    Compressed.v ~graph:(Digraph.make ~n:1 [ (0, 0) ]) ~node_map:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "not a reach equivalence" false
    (Verify.is_reach_equivalence g bogus);
  Alcotest.(check bool) "queries broken" false (Verify.reach_preserved g bogus);
  Alcotest.(check bool) "not max bisim either" false
    (Verify.is_max_bisimulation g bogus)

let verify_rejects_missing_edge () =
  let g = chain_graph () in
  let c = Compress_reach.compress g in
  let gr = Compressed.graph c in
  match Testutil.edges_list gr with
  | [] -> Alcotest.fail "expected edges in Gr"
  | e :: _ ->
      let broken =
        Compressed.v
          ~graph:(Digraph.remove_edges gr [ e ])
          ~node_map:(Array.init 4 (Compressed.hypernode c))
      in
      Alcotest.(check bool) "dropping a Gr edge breaks preservation" false
        (Verify.reach_preserved g broken)

let verify_rejects_phantom_edge () =
  let g = Digraph.make ~n:3 ~labels:[| 0; 1; 2 |] [ (0, 1) ] in
  let c = Compress_reach.compress g in
  let gr = Compressed.graph c in
  (* invent an edge no member edge justifies *)
  let h2 = Compressed.hypernode c 2 and h0 = Compressed.hypernode c 0 in
  let broken =
    Compressed.v
      ~graph:(Digraph.add_edges gr [ (h2, h0) ])
      ~node_map:(Array.init 3 (Compressed.hypernode c))
  in
  Alcotest.(check bool) "phantom edge rejected by well_formed" false
    (Verify.well_formed broken ~original:g);
  Alcotest.(check bool) "and by preservation" false
    (Verify.reach_preserved g broken)

let verify_same_compression_negative () =
  let g = chain_graph () in
  let a = Compress_reach.compress g in
  let b = Compress_bisim.compress g in
  (* different schemes partition this graph differently *)
  Alcotest.(check bool) "different partitions detected" false
    (Verify.same_compression a b)

let () =
  Alcotest.run "core"
    [
      ( "reach_equiv",
        Alcotest.test_case "recommendation network (Example 2)" `Quick
          reach_equiv_recommendation
        :: Alcotest.test_case "group_by_signature empty (regression)" `Quick
             group_by_signature_empty
        :: reach_equiv_props );
      ( "compress_reach",
        [
          Alcotest.test_case "recommendation queries (Example 3)" `Quick
            compress_reach_recommendation;
          Alcotest.test_case "bisim index counter-example (Fig 4)" `Quick
            bisim_index_not_reach_preserving;
        ]
        @ compress_reach_props );
      ( "compress_bisim",
        [
          Alcotest.test_case "recommendation pattern (Examples 1/5)" `Quick
            compress_bisim_recommendation;
          Alcotest.test_case "A(k) index counter-example (Fig 6)" `Quick
            ak_index_not_pattern_preserving;
        ]
        @ compress_bisim_props );
      ( "compressed",
        [
          Alcotest.test_case "basics" `Quick compressed_unit;
          Alcotest.test_case "errors" `Quick compressed_errors;
          Alcotest.test_case "expand_result" `Quick expand_result_unit;
          Alcotest.test_case "empty graph" `Quick empty_graph_unit;
          Alcotest.test_case "single node" `Quick single_node_unit;
        ]
        @ expand_result_props );
      ( "compressed_io",
        [
          Alcotest.test_case "roundtrip" `Quick compressed_io_roundtrip;
          Alcotest.test_case "errors" `Quick compressed_io_errors;
          Alcotest.test_case "binary errors" `Quick compressed_io_binary_errors;
        ]
        @ compressed_io_props );
      ( "verify (mutation)",
        [
          Alcotest.test_case "rejects merged classes" `Quick
            verify_rejects_merged_classes;
          Alcotest.test_case "rejects missing edge" `Quick
            verify_rejects_missing_edge;
          Alcotest.test_case "rejects phantom edge" `Quick
            verify_rejects_phantom_edge;
          Alcotest.test_case "same_compression distinguishes" `Quick
            verify_same_compression_negative;
        ] );
    ]
