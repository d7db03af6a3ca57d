(* Tests for the partition-refinement substrate: refinable partitions,
   Paige-Tarjan, maximum bisimulation, k-bisimulation. *)

let qtest = Testutil.qtest
let arb_g = Testutil.arbitrary_digraph ()

(* ------------------------------------------------------------------ *)
(* Refinable partition *)

let partition_basics () =
  let p = Partition.create 6 in
  Alcotest.(check int) "one block" 1 (Partition.block_count p);
  Alcotest.(check int) "size" 6 (Partition.block_size p 0);
  Partition.mark p 1;
  Partition.mark p 3;
  Partition.mark p 3;
  Alcotest.(check int) "marked" 2 (Partition.marked_size p 0);
  let splits = ref [] in
  Partition.split_marked p (fun ~old_block ~new_block ->
      splits := (old_block, new_block) :: !splits);
  Alcotest.(check (list (pair int int))) "one split" [ (0, 1) ] !splits;
  Alcotest.(check (list int)) "new block members" [ 1; 3 ] (Partition.members p 1);
  Alcotest.(check (list int)) "old block members" [ 0; 2; 4; 5 ]
    (Partition.members p 0);
  Alcotest.(check int) "block_of moved" 1 (Partition.block_of p 3)

let partition_full_mark () =
  let p = Partition.create 3 in
  Partition.mark p 0;
  Partition.mark p 1;
  Partition.mark p 2;
  let splits = ref 0 in
  Partition.split_marked p (fun ~old_block:_ ~new_block:_ -> incr splits);
  Alcotest.(check int) "fully marked block does not split" 0 !splits;
  Alcotest.(check int) "still one block" 1 (Partition.block_count p);
  Alcotest.(check int) "marks cleared" 0 (Partition.marked_size p 0)

let partition_create_with () =
  let p = Partition.create_with [| 5; 9; 5; 7; 9 |] in
  Alcotest.(check int) "three blocks" 3 (Partition.block_count p);
  Alcotest.(check bool) "same key same block" true
    (Partition.block_of p 0 = Partition.block_of p 2);
  Alcotest.(check bool) "diff key diff block" true
    (Partition.block_of p 0 <> Partition.block_of p 3);
  Alcotest.(check (list int)) "members" [ 1; 4 ] (Partition.members p (Partition.block_of p 1))

let partition_empty () =
  let p = Partition.create 0 in
  Alcotest.(check int) "universe" 0 (Partition.universe_size p);
  let p2 = Partition.create_with [||] in
  Alcotest.(check int) "blocks" 1 (Partition.block_count p2)

let normalize_unit () =
  Alcotest.(check (array int)) "normalize" [| 0; 1; 0; 2 |]
    (Partition.normalize_assignment [| 7; 3; 7; 9 |]);
  Alcotest.(check bool) "equivalent up to renaming" true
    (Partition.equivalent [| 7; 3; 7 |] [| 0; 5; 0 |]);
  Alcotest.(check bool) "different partitions" false
    (Partition.equivalent [| 0; 0; 1 |] [| 0; 1; 1 |]);
  Alcotest.(check bool) "length mismatch" false
    (Partition.equivalent [| 0 |] [| 0; 0 |])

let keys_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 30) (int_range 0 5)

let arb_keys =
  (keys_gen, fun ks -> String.concat "," (List.map string_of_int ks))

let partition_props =
  [
    qtest "create_with groups exactly by key" arb_keys (fun ks ->
        let keys = Array.of_list ks in
        let p = Partition.create_with keys in
        let ok = ref true in
        Array.iteri
          (fun i ki ->
            Array.iteri
              (fun j kj ->
                if (ki = kj) <> (Partition.block_of p i = Partition.block_of p j)
                then ok := false)
              keys)
          keys;
        !ok);
    qtest "assignment matches block_of" arb_keys (fun ks ->
        let p = Partition.create_with (Array.of_list ks) in
        let a = Partition.assignment p in
        Array.for_all Fun.id
          (Array.mapi (fun i b -> b = Partition.block_of p i) a));
  ]

(* ------------------------------------------------------------------ *)
(* Paige-Tarjan vs naive bisimulation *)

let pt_props =
  [
    qtest ~count:300 "PT equals naive refinement" arb_g (fun g ->
        Partition.equivalent
          (Bisimulation.max_bisimulation g)
          (Bisim_oracle.max_bisimulation_naive g));
    qtest ~count:300 "rank-stratified DPP equals PT" arb_g (fun g ->
        Partition.equivalent
          (Bisim_oracle.max_bisimulation_ranked g)
          (Bisimulation.max_bisimulation g));
    qtest "PT output is stable" arb_g (fun g ->
        Bisimulation.is_stable_partition g (Bisimulation.max_bisimulation g));
    qtest "PT refines labels" arb_g (fun g ->
        let a = Bisimulation.max_bisimulation g in
        let ok = ref true in
        for u = 0 to Digraph.n g - 1 do
          for v = 0 to Digraph.n g - 1 do
            if a.(u) = a.(v) && Digraph.label g u <> Digraph.label g v then
              ok := false
          done
        done;
        !ok);
    qtest "PT is the coarsest stable partition" arb_g (fun g ->
        (* Merging any two blocks must break stability. *)
        let a = Bisimulation.max_bisimulation g in
        let blocks = Array.fold_left (fun acc b -> max acc (b + 1)) 0 a in
        let ok = ref true in
        for b1 = 0 to blocks - 1 do
          for b2 = b1 + 1 to blocks - 1 do
            let merged = Array.map (fun b -> if b = b2 then b1 else b) a in
            if Bisimulation.is_stable_partition g merged then ok := false
          done
        done;
        !ok);
    qtest "initial keys are respected" arb_g (fun g ->
        (* A finer initial partition gives a finer result. *)
        let n = Digraph.n g in
        let fine = Array.init n (fun v -> v mod 2) in
        let a =
          Paige_tarjan.coarsest_stable_refinement g ~initial:fine
        in
        Array.for_all Fun.id
          (Array.mapi
             (fun u bu ->
               Array.for_all Fun.id
                 (Array.mapi
                    (fun v bv -> (bu <> bv) || fine.(u) = fine.(v))
                    a))
             a));
  ]

(* ------------------------------------------------------------------ *)
(* Flat engine vs the pre-rewrite hashtable engine *)

(* The pre-rewrite Paige-Tarjan, kept verbatim as an independent oracle:
   X-blocks as int lists, a (u, x) hash table of edge counts, FIFO
   worklist.  The library's flat-array engine must produce the identical
   normalized assignment on every graph. *)
module Reference_pt = struct
  type xblock = { mutable pblocks : int list; mutable queued : bool }

  let coarsest_stable_refinement g ~initial =
    let n = Digraph.n g in
    let keys =
      Array.init n (fun v ->
          (initial.(v) * 2) + if Digraph.out_degree g v > 0 then 1 else 0)
    in
    let p = Partition.create_with keys in
    let xblocks =
      ref (Array.init 4 (fun _ -> { pblocks = []; queued = false }))
    in
    let x_count = ref 0 in
    let new_xblock pbs =
      if !x_count = Array.length !xblocks then begin
        let bigger =
          Array.init (2 * !x_count) (fun i ->
              if i < !x_count then !xblocks.(i)
              else { pblocks = []; queued = false })
        in
        xblocks := bigger
      end;
      let id = !x_count in
      incr x_count;
      !xblocks.(id) <- { pblocks = pbs; queued = false };
      id
    in
    let p2x = ref (Array.make (max 4 (Partition.block_count p)) 0) in
    let set_p2x b x =
      if b >= Array.length !p2x then begin
        let bigger = Array.make (2 * (b + 1)) 0 in
        Array.blit !p2x 0 bigger 0 (Array.length !p2x);
        p2x := bigger
      end;
      !p2x.(b) <- x
    in
    let all_pblocks = List.init (Partition.block_count p) Fun.id in
    let x0 = new_xblock all_pblocks in
    List.iter (fun b -> set_p2x b x0) all_pblocks;
    let counts : int Mono.Ptbl.t = Mono.Ptbl.create (2 * n + 1) in
    for u = 0 to n - 1 do
      let d = Digraph.out_degree g u in
      if d > 0 then Mono.Ptbl.replace counts (u, x0) d
    done;
    let worklist = Queue.create () in
    let enqueue x =
      let xb = !xblocks.(x) in
      if (not xb.queued) && List.length xb.pblocks >= 2 then begin
        xb.queued <- true;
        Queue.add x worklist
      end
    in
    enqueue x0;
    let attach_split ~old_block ~new_block =
      let x = !p2x.(old_block) in
      set_p2x new_block x;
      let xb = !xblocks.(x) in
      xb.pblocks <- new_block :: xb.pblocks;
      enqueue x
    in
    while not (Queue.is_empty worklist) do
      let xs = Queue.pop worklist in
      let xb = !xblocks.(xs) in
      xb.queued <- false;
      match xb.pblocks with
      | [] | [ _ ] -> ()
      | b1 :: b2 :: rest ->
          let b, remaining =
            if Partition.block_size p b1 <= Partition.block_size p b2 then
              (b1, b2 :: rest)
            else (b2, b1 :: rest)
          in
          xb.pblocks <- remaining;
          let xn = new_xblock [ b ] in
          set_p2x b xn;
          enqueue xs;
          let preds = ref [] in
          Partition.iter_block p b (fun v ->
              Digraph.iter_pred g v (fun u ->
                  (match Mono.Ptbl.find_opt counts (u, xs) with
                  | Some 1 -> Mono.Ptbl.remove counts (u, xs)
                  | Some c -> Mono.Ptbl.replace counts (u, xs) (c - 1)
                  | None -> assert false);
                  (match Mono.Ptbl.find_opt counts (u, xn) with
                  | Some c -> Mono.Ptbl.replace counts (u, xn) (c + 1)
                  | None ->
                      Mono.Ptbl.replace counts (u, xn) 1;
                      preds := u :: !preds)));
          List.iter (fun u -> Partition.mark p u) !preds;
          Partition.split_marked p attach_split;
          List.iter
            (fun u ->
              if not (Mono.Ptbl.mem counts (u, xs)) then Partition.mark p u)
            !preds;
          Partition.split_marked p attach_split
    done;
    Partition.normalize_assignment (Partition.assignment p)
end

(* Pools shared across qcheck iterations (see test_parallel.ml); domains = 1
   exercises the sequential fallback of the parallel pre-split. *)
let pool2 = lazy (Pool.create ~domains:2 ())
let pool4 = lazy (Pool.create ~domains:4 ())

let pools () =
  [ (1, Pool.create ~domains:1 ()); (2, Lazy.force pool2); (4, Lazy.force pool4) ]

(* Both engines end in [normalize_assignment], so agreement is asserted
   bit-for-bit with [=], not just up to renaming. *)
let engines_agree ?(initial_of = Digraph.labels) g =
  let reference = Reference_pt.coarsest_stable_refinement g ~initial:(initial_of g) in
  List.for_all
    (fun (_, pool) ->
      Paige_tarjan.coarsest_stable_refinement ~pool g ~initial:(initial_of g)
      = reference)
    (pools ())

let with_all_self_loops g =
  let n = Digraph.n g in
  let edges =
    List.init n (fun v -> (v, v)) @ Testutil.edges_list g
  in
  Digraph.make ~n ~labels:(Digraph.labels g) edges

let flat_engine_props =
  [
    qtest ~count:300 "flat engine matches naive oracle (domains 1,2,4)" arb_g
      (fun g ->
        let naive = Bisim_oracle.max_bisimulation_naive g in
        List.for_all
          (fun (_, pool) ->
            Partition.equivalent (Bisimulation.max_bisimulation ~pool g) naive)
          (pools ()));
    qtest ~count:300 "flat engine bit-identical to pre-rewrite engine" arb_g
      engines_agree;
    qtest ~count:200 "engines agree with every node self-looped" arb_g
      (fun g -> engines_agree (with_all_self_loops g));
    qtest ~count:200 "engines agree on single-label graphs"
      (Testutil.arbitrary_digraph ~max_labels:1 ())
      engines_agree;
    qtest ~count:200 "engines agree on all-distinct initial keys" arb_g
      (engines_agree ~initial_of:(fun g -> Array.init (Digraph.n g) Fun.id));
  ]

let flat_engine_empty () =
  List.iter
    (fun (d, pool) ->
      Alcotest.(check (array int))
        (Printf.sprintf "empty graph (domains=%d)" d)
        [||]
        (Paige_tarjan.coarsest_stable_refinement ~pool Digraph.empty
           ~initial:[||]))
    (pools ());
  Alcotest.(check (array int))
    "empty graph via max_bisimulation" [||]
    (Bisimulation.max_bisimulation Digraph.empty)

let bisim_examples () =
  (* Fig 6 G1: the B nodes split by their child labels. *)
  let graph1 = Testutil.Fig6.g1 () in
  let open Testutil.Fig6 in
  Alcotest.(check bool) "B1 ~ B5 (both C and D children)" true
    (Bisimulation.bisimilar graph1 b1 b5);
  Alcotest.(check bool) "B2 !~ B3" false (Bisimulation.bisimilar graph1 b2 b3);
  Alcotest.(check bool) "A1 !~ A2" false (Bisimulation.bisimilar graph1 a1 a2);
  Alcotest.(check bool) "A1 !~ A3" false (Bisimulation.bisimilar graph1 a1 a3);
  Alcotest.(check bool) "A2 !~ A3" false (Bisimulation.bisimilar graph1 a2 a3);
  (* Fig 6 G2: A5 ~ A6 bisimilar. *)
  let graph2 = Testutil.Fig6.g2 () in
  Alcotest.(check bool) "A5 ~ A6" true (Bisimulation.bisimilar graph2 a5 a6);
  Alcotest.(check bool) "A4 !~ A5" false (Bisimulation.bisimilar graph2 a4 a5)

let recommendation_bisim () =
  let g = Testutil.recommendation () in
  let open Testutil.Rec in
  Alcotest.(check bool) "FA3 ~ FA4 (Example 4)" true
    (Bisimulation.bisimilar g fa3 fa4);
  Alcotest.(check bool) "FA2 !~ FA3 (Example 4)" false
    (Bisimulation.bisimilar g fa2 fa3);
  Alcotest.(check bool) "BSA1 ~ BSA2" true (Bisimulation.bisimilar g bsa1 bsa2);
  Alcotest.(check bool) "FA1 ~ FA2" true (Bisimulation.bisimilar g fa1 fa2);
  Alcotest.(check bool) "C1 ~ C2" true (Bisimulation.bisimilar g c1 c2)

(* ------------------------------------------------------------------ *)
(* k-bisimulation *)

let kbisim_props =
  [
    qtest "k=0 is the label partition" arb_g (fun g ->
        Partition.equivalent (Kbisim.compute g ~k:0) (Digraph.labels g));
    qtest "k+1 refines k" arb_g (fun g ->
        let k = 2 in
        let a = Kbisim.compute g ~k and b = Kbisim.compute g ~k:(k + 1) in
        (* every block of b is inside a block of a *)
        Array.for_all Fun.id
          (Array.mapi
             (fun u _ ->
               Array.for_all Fun.id
                 (Array.mapi (fun v _ -> b.(u) <> b.(v) || a.(u) = a.(v)) b))
             b));
    qtest "k = n equals maximum bisimulation" arb_g (fun g ->
        Partition.equivalent
          (Kbisim.compute g ~k:(Digraph.n g))
          (Bisimulation.max_bisimulation g));
    qtest "index graph has one node per block" arb_g (fun g ->
        let idx, assignment = Kbisim.index_graph g ~k:2 in
        let blocks = Array.fold_left (fun acc b -> max acc (b + 1)) 0 assignment in
        Digraph.n idx = max 1 blocks || Digraph.n g = 0);
  ]

let kbisim_counterexample () =
  (* Fig 6: A1, A2, A3 are 1-bisimilar (all have only B children) although
     not bisimilar — the A(1)-index merges what compressB keeps apart. *)
  let graph1 = Testutil.Fig6.g1 () in
  let open Testutil.Fig6 in
  let a = Kbisim.compute graph1 ~k:1 in
  Alcotest.(check bool) "A1 ~1 A2" true (a.(a1) = a.(a2));
  Alcotest.(check bool) "A1 ~1 A3" true (a.(a1) = a.(a3));
  let full = Bisimulation.max_bisimulation graph1 in
  Alcotest.(check bool) "but not bisimilar" false (full.(a1) = full.(a2))

let dk_props =
  [
    Testutil.qtest "D(k) with constant k equals A(k)"
      (Testutil.arbitrary_digraph ())
      (fun g ->
        List.for_all
          (fun k ->
            Partition.equivalent
              (Kbisim.compute_dk g ~k_of:(fun _ -> k))
              (Kbisim.compute_backward g ~k))
          [ 0; 1; 2 ]);
    Testutil.qtest "D(k) refines labels"
      (Testutil.arbitrary_digraph ())
      (fun g ->
        let a = Kbisim.compute_dk g ~k_of:(fun v -> v mod 3) in
        let ok = ref true in
        for u = 0 to Digraph.n g - 1 do
          for v = 0 to Digraph.n g - 1 do
            if a.(u) = a.(v) && Digraph.label g u <> Digraph.label g v then
              ok := false
          done
        done;
        !ok);
    Testutil.qtest "1-index is the k->inf limit"
      (Testutil.arbitrary_digraph ())
      (fun g ->
        let _, a = Kbisim.one_index g in
        Partition.equivalent a (Kbisim.compute_backward g ~k:(Digraph.n g)));
  ]

let kbisim_errors () =
  Alcotest.check_raises "negative k"
    (Invalid_argument "Kbisim.compute: negative k") (fun () ->
      ignore (Kbisim.compute (Digraph.make ~n:1 []) ~k:(-1)))

let () =
  Alcotest.run "partition"
    [
      ( "refinable",
        [
          Alcotest.test_case "basics" `Quick partition_basics;
          Alcotest.test_case "full mark" `Quick partition_full_mark;
          Alcotest.test_case "create_with" `Quick partition_create_with;
          Alcotest.test_case "empty" `Quick partition_empty;
          Alcotest.test_case "normalize" `Quick normalize_unit;
        ]
        @ partition_props );
      ( "bisimulation",
        [
          Alcotest.test_case "paper examples (Fig 6)" `Quick bisim_examples;
          Alcotest.test_case "recommendation network" `Quick recommendation_bisim;
        ]
        @ pt_props );
      ( "flat-engine",
        [ Alcotest.test_case "empty graph" `Quick flat_engine_empty ]
        @ flat_engine_props );
      ( "kbisim",
        [
          Alcotest.test_case "A(1) counterexample" `Quick kbisim_counterexample;
          Alcotest.test_case "errors" `Quick kbisim_errors;
        ]
        @ kbisim_props );
      ("dk-index", dk_props);
    ]
