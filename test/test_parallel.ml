(* The parallel runtime: Pool scheduling itself, and the contract every
   parallelised kernel advertises — results identical, bit for bit, to the
   sequential run for any domain count.

   Pools are created once and shared across qcheck iterations; spawning
   domains per property case would dominate the suite's runtime. *)

let pool2 = lazy (Pool.create ~domains:2 ())
let pool4 = lazy (Pool.create ~domains:4 ())

(* domains = 1 exercises the sequential fallback through the same API. *)
let pools () = [ (1, Pool.create ~domains:1 ()); (2, Lazy.force pool2); (4, Lazy.force pool4) ]

(* ------------------------------------------------------------------ *)
(* Pool unit tests *)

let test_parallel_for_covers () =
  List.iter
    (fun (d, pool) ->
      let n = 1000 in
      let hits = Array.make n 0 in
      Pool.parallel_for pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
      Testutil.check_bool
        (Printf.sprintf "every index ran exactly once (domains=%d)" d)
        true
        (Array.for_all (fun c -> c = 1) hits))
    (pools ())

let test_chunk_edges () =
  List.iter
    (fun (d, pool) ->
      List.iter
        (fun chunk ->
          let n = 37 in
          let hits = Array.make n 0 in
          Pool.parallel_for pool ~chunk ~n (fun i -> hits.(i) <- hits.(i) + 1);
          Testutil.check_bool
            (Printf.sprintf "chunk=%d covers all of n=%d (domains=%d)" chunk n d)
            true
            (Array.for_all (fun c -> c = 1) hits))
        [ 1; 2; 36; 37; 38; 1000 ])
    (pools ())

let test_empty_range () =
  List.iter
    (fun (d, pool) ->
      let ran = ref false in
      Pool.parallel_for pool ~n:0 (fun _ -> ran := true);
      Testutil.check_bool
        (Printf.sprintf "n=0 never calls the body (domains=%d)" d)
        false !ran)
    (pools ())

let test_ranges_cover () =
  List.iter
    (fun (d, pool) ->
      let n = 513 in
      let hits = Array.make n 0 in
      Pool.parallel_for_ranges pool ~chunk:7 ~n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Testutil.check_bool
        (Printf.sprintf "ranges partition [0, n) (domains=%d)" d)
        true
        (Array.for_all (fun c -> c = 1) hits))
    (pools ())

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun (d, pool) ->
      let got =
        try
          Pool.parallel_for pool ~chunk:4 ~n:200 (fun i ->
              if i = 137 then raise (Boom i));
          None
        with Boom i -> Some i
      in
      Testutil.check_bool
        (Printf.sprintf "body exception re-raised in caller (domains=%d)" d)
        true
        (got = Some 137);
      (* The pool must survive a failed job. *)
      let sum = ref 0 in
      let lock = Mutex.create () in
      Pool.parallel_for pool ~n:100 (fun i ->
          Mutex.lock lock;
          sum := !sum + i;
          Mutex.unlock lock);
      Testutil.check_int
        (Printf.sprintf "pool usable after exception (domains=%d)" d)
        4950 !sum)
    (pools ())

let test_nested_runs_inline () =
  List.iter
    (fun (d, pool) ->
      let n = 16 in
      let table = Array.make_matrix n n 0 in
      Pool.parallel_for pool ~n (fun i ->
          Pool.parallel_for pool ~n (fun j -> table.(i).(j) <- i + j));
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if table.(i).(j) <> i + j then ok := false
        done
      done;
      Testutil.check_bool
        (Printf.sprintf "nested parallel_for completes correctly (domains=%d)" d)
        true !ok)
    (pools ())

let test_parallel_map () =
  List.iter
    (fun (d, pool) ->
      let arr = Array.init 301 (fun i -> i * 3) in
      let expected = Array.map (fun x -> x * x + 1) arr in
      let got = Pool.parallel_map pool (fun x -> x * x + 1) arr in
      Testutil.check_bool
        (Printf.sprintf "parallel_map = Array.map (domains=%d)" d)
        true (got = expected);
      let xs = List.init 57 (fun i -> i - 20) in
      Testutil.check_bool
        (Printf.sprintf "parallel_map_list = List.map (domains=%d)" d)
        true
        (Pool.parallel_map_list pool (fun x -> (x, x mod 3)) xs
        = List.map (fun x -> (x, x mod 3)) xs))
    (pools ())

let test_with_pool_shutdown () =
  let r = Pool.with_pool ~domains:3 (fun pool ->
      let acc = Array.make 64 0 in
      Pool.parallel_for pool ~n:64 (fun i -> acc.(i) <- i);
      Array.fold_left ( + ) 0 acc)
  in
  Testutil.check_int "with_pool returns the body's result" 2016 r;
  (* shutdown is idempotent and a shut-down pool degrades to sequential *)
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  let hits = Array.make 10 0 in
  Pool.parallel_for pool ~n:10 (fun i -> hits.(i) <- 1);
  Testutil.check_bool "shut-down pool still runs jobs sequentially" true
    (Array.for_all (fun c -> c = 1) hits)

let test_create_invalid () =
  Testutil.check_bool "domains < 1 rejected" true
    (match Pool.create ~domains:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parallel kernels = sequential kernels, bit for bit *)

(* A random ER or DAG graph, sized beyond the sequential-fallback threshold
   often enough to exercise the actual parallel path. *)
let kernel_graph_gen =
  let open QCheck2.Gen in
  let* dag = bool in
  let* n = int_range 2 60 in
  let* m = int_range 0 (3 * n) in
  let* seed = int_range 0 1_000_000 in
  let rng = Random.State.make [| seed |] in
  let g =
    if dag then Generators.random_dag rng ~n ~m
    else Generators.erdos_renyi rng ~n ~m
  in
  pure (Generators.with_random_labels rng g ~label_count:3)

let arbitrary_kernel_graph = (kernel_graph_gen, Testutil.digraph_print)

let node_map c = Array.init (Compressed.original_n c) (Compressed.hypernode c)

let compressed_equal a b =
  Digraph.equal (Compressed.graph a) (Compressed.graph b)
  && node_map a = node_map b

let seq = Pool.create ~domains:1 ()

let prop_compress_paper_identical g =
  let reference = Compress_reach.compress_paper ~pool:seq g in
  List.for_all
    (fun (_, pool) ->
      compressed_equal reference (Compress_reach.compress_paper ~pool g))
    (pools ())

let prop_compress_identical g =
  let reference = Compress_reach.compress ~pool:seq g in
  List.for_all
    (fun (_, pool) -> compressed_equal reference (Compress_reach.compress ~pool g))
    (pools ())

let prop_descendant_sets_identical g =
  let reference = Transitive.descendant_sets ~pool:seq g in
  List.for_all
    (fun (_, pool) ->
      let got = Transitive.descendant_sets ~pool g in
      Array.length got = Array.length reference
      && Array.for_all2 Bitset.equal reference got)
    (pools ())

(* Ancestor sets are the descendant sets of the reversed graph, whose
   stores are the in-mirror. *)
let prop_ancestor_sets_identical g =
  prop_descendant_sets_identical (Digraph.reverse g)

let all_pairs g =
  let n = Digraph.n g in
  Array.init (n * n) (fun k -> (k / n, k mod n))

let prop_eval_batch_identical g =
  let pairs = all_pairs g in
  let reference =
    Array.map
      (fun (source, target) -> Reach_query.eval Bfs g ~source ~target)
      pairs
  in
  List.for_all
    (fun (_, pool) -> Reach_query.eval_batch ~pool Bfs g pairs = reference)
    (pools ())

let prop_answer_batch_identical g =
  let c = Compress_reach.compress ~pool:seq g in
  let pairs = all_pairs g in
  let reference =
    Array.map (fun (source, target) -> Compress_reach.answer c ~source ~target) pairs
  in
  List.for_all
    (fun (_, pool) -> Compress_reach.answer_batch ~pool c pairs = reference)
    (pools ())

(* ------------------------------------------------------------------ *)

let () =
  let qtest = Testutil.qtest in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers" `Quick test_parallel_for_covers;
          Alcotest.test_case "chunk edge cases" `Quick test_chunk_edges;
          Alcotest.test_case "empty range" `Quick test_empty_range;
          Alcotest.test_case "parallel_for_ranges partitions" `Quick test_ranges_cover;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
          Alcotest.test_case "nested parallel_for" `Quick test_nested_runs_inline;
          Alcotest.test_case "parallel_map" `Quick test_parallel_map;
          Alcotest.test_case "with_pool / shutdown" `Quick test_with_pool_shutdown;
          Alcotest.test_case "create validation" `Quick test_create_invalid;
        ] );
      ( "kernels sequential = parallel",
        [
          qtest ~count:60 "compress_paper identical across domain counts"
            arbitrary_kernel_graph prop_compress_paper_identical;
          qtest ~count:60 "compress identical across domain counts"
            arbitrary_kernel_graph prop_compress_identical;
          qtest ~count:100 "descendant_sets identical across domain counts"
            arbitrary_kernel_graph prop_descendant_sets_identical;
          qtest ~count:100 "ancestor_sets identical across domain counts"
            arbitrary_kernel_graph prop_ancestor_sets_identical;
          qtest ~count:60 "eval_batch identical across domain counts"
            arbitrary_kernel_graph prop_eval_batch_identical;
          qtest ~count:60 "answer_batch identical across domain counts"
            arbitrary_kernel_graph prop_answer_batch_identical;
        ] );
    ]
