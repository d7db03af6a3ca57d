(* Tests for regular path queries (the paper's Sec 7 extension): the NFA
   evaluator, its preservation under pattern preserving compression, and
   the parser/printer. *)

let qtest = Testutil.qtest

(* chain with labels 0 -> 1 -> 2 -> 1 *)
let chain () = Digraph.make ~n:4 ~labels:[| 0; 1; 2; 1 |] [ (0, 1); (1, 2); (2, 3) ]

let unit_label () =
  let g = chain () in
  Alcotest.(check (list int)) "single label" [ 1; 3 ]
    (Bitset.to_list (Rpq.matches (Rpq.Label 1) g))

let unit_seq () =
  let g = chain () in
  (* a 0-node followed by a 1-node *)
  Alcotest.(check (list int)) "seq" [ 0 ]
    (Bitset.to_list (Rpq.matches (Rpq.Seq (Rpq.Label 0, Rpq.Label 1)) g));
  (* 1 followed by 2 *)
  Alcotest.(check (list int)) "seq 1-2" [ 1 ]
    (Bitset.to_list (Rpq.matches (Rpq.Seq (Rpq.Label 1, Rpq.Label 2)) g))

let unit_star_plus_opt () =
  let g = chain () in
  (* 0 . 1 (2 1)* : node 0 via path 0,1 and 0,1,2,1 *)
  let r =
    Rpq.Seq
      ( Rpq.Label 0,
        Rpq.Seq (Rpq.Label 1, Rpq.Star (Rpq.Seq (Rpq.Label 2, Rpq.Label 1))) )
  in
  Alcotest.(check (list int)) "star" [ 0 ] (Bitset.to_list (Rpq.matches r g));
  (* plus requires at least one repetition *)
  let rp =
    Rpq.Seq (Rpq.Label 1, Rpq.Plus (Rpq.Seq (Rpq.Label 2, Rpq.Label 1)))
  in
  Alcotest.(check (list int)) "plus" [ 1 ] (Bitset.to_list (Rpq.matches rp g));
  (* optional tail *)
  let ro = Rpq.Seq (Rpq.Label 2, Rpq.Opt (Rpq.Label 1)) in
  Alcotest.(check (list int)) "opt" [ 2 ] (Bitset.to_list (Rpq.matches ro g))

let unit_any_alt () =
  let g = chain () in
  Alcotest.(check (list int)) "any matches everything" [ 0; 1; 2; 3 ]
    (Bitset.to_list (Rpq.matches Rpq.Any g));
  Alcotest.(check (list int)) "alt" [ 0; 2 ]
    (Bitset.to_list (Rpq.matches (Rpq.Alt (Rpq.Label 0, Rpq.Label 2)) g))

let unit_cycle () =
  (* a 2-cycle supports unbounded repetitions *)
  let g = Digraph.make ~n:2 ~labels:[| 0; 1 |] [ (0, 1); (1, 0) ] in
  let r =
    Rpq.Seq (Rpq.Label 0, Rpq.Seq (Rpq.Label 1, Rpq.Seq (Rpq.Label 0, Rpq.Label 1)))
  in
  Alcotest.(check (list int)) "cycle unrolls" [ 0 ]
    (Bitset.to_list (Rpq.matches r g))

let unit_pairs () =
  let g = chain () in
  let r = Rpq.Seq (Rpq.Label 0, Rpq.Seq (Rpq.Label 1, Rpq.Label 2)) in
  Alcotest.(check (list int)) "pairs endpoint" [ 2 ]
    (Bitset.to_list (Rpq.pairs r g ~source:0));
  Alcotest.(check (list int)) "pairs from wrong label" []
    (Bitset.to_list (Rpq.pairs r g ~source:1))

(* random regex generator, bounded depth *)
let regex_gen max_label =
  let open QCheck2.Gen in
  let rec go depth =
    if depth = 0 then
      oneof [ map (fun l -> Rpq.Label l) (int_range 0 max_label); pure Rpq.Any ]
    else begin
      let sub = go (depth - 1) in
      frequency
        [
          (2, map (fun l -> Rpq.Label l) (int_range 0 max_label));
          (1, pure Rpq.Any);
          (2, map2 (fun a b -> Rpq.Seq (a, b)) sub sub);
          (2, map2 (fun a b -> Rpq.Alt (a, b)) sub sub);
          (1, map (fun a -> Rpq.Star a) sub);
          (1, map (fun a -> Rpq.Plus a) sub);
          (1, map (fun a -> Rpq.Opt a) sub);
        ]
    end
  in
  go 3

let arb_graph_regex =
  ( (let open QCheck2.Gen in
     let* g = Testutil.digraph_gen ~max_labels:3 () in
     let* r = regex_gen 2 in
     pure (g, r)),
    fun (g, r) -> Format.asprintf "%a@.%a" Digraph.pp g Rpq.pp r )

let rpq_props =
  [
    qtest ~count:300 "matches agrees with per-source pairs" arb_graph_regex
      (fun (g, r) ->
        let m = Rpq.matches r g in
        let ok = ref true in
        for u = 0 to Digraph.n g - 1 do
          let nonempty = not (Bitset.is_empty (Rpq.pairs r g ~source:u)) in
          if Bitset.mem m u <> nonempty then ok := false
        done;
        !ok);
    qtest ~count:300 "preserved by pattern compression" arb_graph_regex
      (fun (g, r) ->
        let c = Compress_bisim.compress g in
        Array.to_list (Compress_bisim.answer_rpq r c)
        = Bitset.to_list (Rpq.matches r g));
    qtest "bisimilar nodes satisfy the same queries" arb_graph_regex
      (fun (g, r) ->
        let classes = Bisimulation.max_bisimulation g in
        let m = Rpq.matches r g in
        let ok = ref true in
        for u = 0 to Digraph.n g - 1 do
          for v = 0 to Digraph.n g - 1 do
            if classes.(u) = classes.(v) && Bitset.mem m u <> Bitset.mem m v
            then ok := false
          done
        done;
        !ok);
    qtest "pp/parse roundtrip"
      ((regex_gen 5), fun r -> Format.asprintf "%a" Rpq.pp r)
      (fun r ->
        let printed = Format.asprintf "%a" Rpq.pp r in
        let reparsed = Rpq.parse printed in
        (* compare by language proxy: same matches on a fixed graph *)
        let rng = Random.State.make [| 31 |] in
        let g =
          Generators.with_random_labels rng
            (Generators.erdos_renyi rng ~n:12 ~m:24)
            ~label_count:6
        in
        Bitset.equal (Rpq.matches r g) (Rpq.matches reparsed g));
    qtest "satisfies agrees with matches" arb_graph_regex (fun (g, r) ->
        Digraph.n g = 0
        || Rpq.satisfies r g 0 = Bitset.mem (Rpq.matches r g) 0);
  ]

let parse_unit () =
  let r = Rpq.parse "l0(l1|l2)*l3?" in
  Alcotest.(check string) "roundtrip" "l0(l1|l2)*l3?"
    (Format.asprintf "%a" Rpq.pp r);
  let r2 = Rpq.parse ".+" in
  Alcotest.(check string) "any plus" ".+" (Format.asprintf "%a" Rpq.pp r2)

let parse_errors () =
  let expect s =
    match Rpq.parse s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("expected parse error for " ^ s)
  in
  expect "";
  expect "l";
  expect "(l1";
  expect "l1)";
  expect "*";
  expect "l1 l2";
  expect "x3"

(* A root with two bisimilar l1 -> l2 branches: compressB merges each
   pair of twins into one hypernode, and answer_rpq expands a matched
   hypernode back to both members. *)
let compressed_twins () =
  let g =
    Digraph.make ~n:5 ~labels:[| 0; 1; 1; 2; 2 |]
      [ (0, 1); (0, 2); (1, 3); (2, 4) ]
  in
  let c = Compress_bisim.compress g in
  Alcotest.(check int) "twins merged" 3 (Digraph.n (Compressed.graph c));
  List.iter
    (fun (q, expected) ->
      let r = Rpq.parse q in
      Alcotest.(check (array int)) q expected (Compress_bisim.answer_rpq r c);
      Alcotest.(check (list int))
        (q ^ " on G") (Array.to_list expected)
        (Bitset.to_list (Rpq.matches r g)))
    [ ("l0l1l2", [| 0 |]); ("l1l2", [| 1; 2 |]); ("l2", [| 3; 4 |]);
      ("l1l1", [||]) ]

let () =
  Alcotest.run "rpq"
    [
      ( "eval",
        [
          Alcotest.test_case "label" `Quick unit_label;
          Alcotest.test_case "seq" `Quick unit_seq;
          Alcotest.test_case "star/plus/opt" `Quick unit_star_plus_opt;
          Alcotest.test_case "any/alt" `Quick unit_any_alt;
          Alcotest.test_case "cycle" `Quick unit_cycle;
          Alcotest.test_case "pairs" `Quick unit_pairs;
        ]
        @ rpq_props );
      ( "parse",
        [
          Alcotest.test_case "roundtrip" `Quick parse_unit;
          Alcotest.test_case "errors" `Quick parse_errors;
        ] );
      ( "compressed graph",
        [ Alcotest.test_case "answer_rpq expands twins" `Quick compressed_twins ]
      );
    ]
