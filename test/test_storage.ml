(* Storage-backend tests: the 'M' (mmap) and 'V' (varint) snapshot
   formats, the varint codec, and the backend-equivalence properties —
   every query-visible accessor must behave identically on the flat, mmap
   and varint backends, under 1, 2 and 4 domains. *)

let tmp_counter = ref 0

let with_tmp_file f =
  incr tmp_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "qpgc_storage_%d_%d.bin" (Unix.getpid ()) !tmp_counter)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A small fixed graph with named labels, used by the deterministic
   corruption cases. *)
let sample () =
  let table = Graph_io.Label_table.create () in
  let a = Graph_io.Label_table.intern table "author" in
  let p = Graph_io.Label_table.intern table "paper" in
  let g =
    Digraph.make ~n:6
      ~labels:[| a; a; p; p; p; a |]
      [ (0, 2); (0, 3); (1, 2); (2, 4); (3, 4); (4, 5); (5, 0); (5, 5) ]
  in
  (g, table)

let expect_parse_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Parse_error" what
  | exception Graph_io.Parse_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Varint codec *)

let codec_roundtrip () =
  let cases =
    [ 0; 1; 17; 127; 128; 255; 16383; 16384; 0xfffff; 0x7fffffff;
      max_int ]
  in
  List.iter
    (fun x ->
      let buf = Buffer.create 16 in
      Varint.add buf x;
      let s = Buffer.contents buf in
      Testutil.check_int "byte_length" (String.length s) (Varint.byte_length x);
      let y, p = Varint.read s 0 in
      Testutil.check_int "value" x y;
      Testutil.check_int "end pos" (String.length s) p;
      let pos = ref 0 in
      Testutil.check_int "trusted value" x (Varint.read_trusted s pos);
      Testutil.check_int "trusted end" (String.length s) !pos)
    cases

let codec_errors () =
  let expect_error what s pos =
    match Varint.read s pos with
    | _ -> Alcotest.failf "%s: expected Varint.Error" what
    | exception Varint.Error _ -> ()
  in
  expect_error "empty" "" 0;
  expect_error "past end" "\x05" 1;
  expect_error "negative pos" "\x05" (-1);
  expect_error "truncated continuation" "\x80" 0;
  expect_error "overlong zero" "\x80\x00" 0;
  expect_error "overlong value" "\x85\x00" 0;
  (* 10 continuation bytes cannot fit a 63-bit int. *)
  expect_error "overflow" "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f" 0;
  (* Canonical single zero is fine. *)
  let y, p = Varint.read "\x00" 0 in
  Testutil.check_int "zero value" 0 y;
  Testutil.check_int "zero pos" 1 p

(* ------------------------------------------------------------------ *)
(* Format round-trips *)

let format_of_backend = function
  | Digraph.Flat -> "flat"
  | Digraph.Mapped -> "mmap"
  | Digraph.Varint -> "varint"

let roundtrip_prop fmt g =
  let s = Graph_io.to_snapshot_string ~format:fmt g in
  let g', _ = Graph_io.of_binary_string s in
  Digraph.validate g';
  if not (Digraph.equal g g') then
    QCheck2.Test.fail_reportf "%s roundtrip changed the graph"
      (format_of_backend fmt);
  (* Canonicality: re-serialising the loaded graph — whatever backend it
     landed on — reproduces the bytes. *)
  let s2 = Graph_io.to_snapshot_string ~format:fmt g' in
  if not (String.equal s s2) then
    QCheck2.Test.fail_reportf "%s serialisation not canonical"
      (format_of_backend fmt);
  true

let truncation_prop fmt g =
  let s = Graph_io.to_snapshot_string ~format:fmt g in
  for len = 0 to String.length s - 1 do
    match Graph_io.of_binary_string (String.sub s 0 len) with
    | _ ->
        QCheck2.Test.fail_reportf "%s: truncation to %d bytes accepted"
          (format_of_backend fmt) len
    | exception Graph_io.Parse_error _ -> ()
  done;
  true

let mmap_load_prop g =
  with_tmp_file (fun path ->
      let table = Graph_io.Label_table.create () in
      ignore (Graph_io.Label_table.intern table "alpha");
      Graph_io.save_binary ~labels:table ~format:Digraph.Mapped path g;
      (* Eager load: flat backend. *)
      let ge, te = Graph_io.load path in
      if Digraph.backend ge <> Digraph.Flat then
        QCheck2.Test.fail_report "eager 'M' load should land on flat";
      (* Zero-copy load: mapped backend, same graph. *)
      let gm, tm = Graph_io.load ~mmap:true path in
      if Digraph.backend gm <> Digraph.Mapped then
        QCheck2.Test.fail_report "mmap load should land on mapped backend";
      Digraph.validate gm;
      if not (Digraph.equal g ge && Digraph.equal g gm) then
        QCheck2.Test.fail_report "mmap roundtrip changed the graph";
      if
        Graph_io.Label_table.count te <> 1
        || Graph_io.Label_table.count tm <> 1
        || Graph_io.Label_table.name tm 0 <> "alpha"
      then QCheck2.Test.fail_report "label table lost by mmap roundtrip";
      true)

let varint_backend_load_prop g =
  let s = Graph_io.to_snapshot_string ~format:Digraph.Varint g in
  let g', _ = Graph_io.of_binary_string s in
  if Digraph.backend g' <> Digraph.Varint then
    QCheck2.Test.fail_report "'V' load should land on varint backend";
  (* The dense escape hatch must agree with the flat original. *)
  let off, adj = Digraph.out_csr g and off', adj' = Digraph.out_csr g' in
  if off <> off' || adj <> adj' then
    QCheck2.Test.fail_report "varint dense view disagrees";
  let ioff, iadj = Digraph.in_csr g and ioff', iadj' = Digraph.in_csr g' in
  if ioff <> ioff' || iadj <> iadj' then
    QCheck2.Test.fail_report "varint dense in-view disagrees";
  true

(* ------------------------------------------------------------------ *)
(* Deterministic corruption cases *)

let set_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

let mapped_corruption () =
  let g, table = sample () in
  let s = Graph_io.to_snapshot_string ~labels:table ~format:Digraph.Mapped g in
  expect_parse_error "kind" (fun () ->
      Graph_io.of_binary_string (set_byte s 4 'Z'));
  expect_parse_error "version" (fun () ->
      Graph_io.of_binary_string (set_byte s 5 '\009'));
  expect_parse_error "node count" (fun () ->
      Graph_io.of_binary_string (set_byte s 8 '\007'));
  expect_parse_error "edge count" (fun () ->
      Graph_io.of_binary_string (set_byte s 16 '\200'));
  expect_parse_error "label count" (fun () ->
      Graph_io.of_binary_string (set_byte s 24 '\000'));
  expect_parse_error "blob length" (fun () ->
      Graph_io.of_binary_string (set_byte s 40 '\001'));
  (* First out-offset entry made nonzero. *)
  expect_parse_error "offsets" (fun () ->
      Graph_io.of_binary_string (set_byte s 48 '\002'));
  (* An adjacency entry pushed out of sorted order. *)
  let adj0 = 48 + (8 * 7) in
  expect_parse_error "adjacency" (fun () ->
      Graph_io.of_binary_string (set_byte s adj0 '\005'));
  (* An in-mirror entry that no longer matches the out-CSR. *)
  let iadj0 = 48 + (8 * 7) + (8 * 8) + (8 * 7) in
  expect_parse_error "in-mirror" (fun () ->
      Graph_io.of_binary_string (set_byte s iadj0 '\004'));
  (* The same corruptions must also be rejected on the mmap path (O(1)
     header checks catch the structural ones; deep validation the rest). *)
  with_tmp_file (fun path ->
      write_file path (set_byte s 40 '\001');
      expect_parse_error "mmap blob length" (fun () ->
          Graph_io.load ~mmap:true path));
  with_tmp_file (fun path ->
      write_file path (set_byte s 48 '\002');
      expect_parse_error "mmap offsets" (fun () ->
          Graph_io.load ~mmap:true path));
  with_tmp_file (fun path ->
      write_file path (set_byte s adj0 '\005');
      let gm, _ = Graph_io.load ~mmap:true path in
      match Digraph.validate gm with
      | () -> Alcotest.fail "mmap deep validation accepted corrupt adjacency"
      | exception Failure _ -> ());
  (* An out-adjacency id past n, mapped without validation: the
     successor-label filter checks each id, as [keep_with_succ_in]
     does, and builds nothing. *)
  with_tmp_file (fun path ->
      write_file path (set_byte s (adj0 + 1) '\001');
      let gm, _ = Graph_io.load ~mmap:true path in
      List.iter
        (fun (what, f) ->
          match f () with
          | () -> Alcotest.failf "%s read an id past n" what
          | exception Invalid_argument _ -> ())
        [
          ( "succ_labelled",
            fun () -> ignore (Digraph.succ_labelled gm : Bitset.t array) );
          ( "keep_with_succ_in",
            fun () ->
              let all = Bitset.create (Digraph.n gm) in
              Bitset.add_range all 0 (Digraph.n gm);
              ignore (Digraph.keep_with_succ_in gm all all : bool) );
        ]);
  (* A 72-byte blob declaring n = 2^59 and m = 2^58: the section sizes
     overflow, wrap and seem to tile the declared length, so the header
     must bound n and m by it before sizing any read or map. *)
  let huge =
    let b = Buffer.create 72 in
    Buffer.add_string b "QPGCM\001\000\000";
    List.iter
      (fun x -> Buffer.add_int64_le b (Int64.of_int x))
      [ 1 lsl 59; 1 lsl 58; 1; 8; 72 ];
    Buffer.add_string b (String.make 24 '\000');
    Buffer.contents b
  in
  expect_parse_error "overflowing section sizes" (fun () ->
      Graph_io.of_binary_string huge);
  with_tmp_file (fun path ->
      write_file path huge;
      expect_parse_error "overflowing section sizes, mmap" (fun () ->
          Graph_io.load ~mmap:true path))

let varint_corruption () =
  let g, table = sample () in
  let s = Graph_io.to_snapshot_string ~labels:table ~format:Digraph.Varint g in
  expect_parse_error "kind" (fun () ->
      Graph_io.of_binary_string (set_byte s 4 'Z'));
  expect_parse_error "version" (fun () ->
      Graph_io.of_binary_string (set_byte s 5 '\009'));
  expect_parse_error "edge count" (fun () ->
      Graph_io.of_binary_string (set_byte s 16 '\042'));
  expect_parse_error "stream length" (fun () ->
      Graph_io.of_binary_string (set_byte s 32 '\001'));
  (* First out-index entry made nonzero. *)
  expect_parse_error "index" (fun () ->
      Graph_io.of_binary_string (set_byte s 48 '\001'));
  (* First stream byte is node 0's degree (2): degree mismatch breaks the
     block framing. *)
  let data0 = 48 + (4 * 7) in
  expect_parse_error "degree" (fun () ->
      Graph_io.of_binary_string (set_byte s data0 '\005'));
  (* A continuation flag on the last byte of a block truncates it. *)
  expect_parse_error "overlong" (fun () ->
      Graph_io.of_binary_string (set_byte s (data0 + 1) '\128'))

(* One mutation of a valid snapshot of a random labelled graph -- 'G',
   'M' or 'V', or a 'C' or 'I' over it with each embedded kind -- a bit
   flip, a 4- or 8-byte word set to 0, -1, 2^31 - 1 or 2^62, or appended
   bytes, either fails with Parse_error or loads a value that re-encodes
   to the mutated bytes: an eager load accepts no malformed and no
   non-canonical snapshot. *)
let eager_mutations () =
  let rand = Random.State.make [| 2718 |] in
  let gen = Testutil.digraph_gen ~max_n:12 ~max_labels:4 () in
  let words = [ 0L; -1L; 0x7fff_ffffL; Int64.shift_left 1L 62 ] in
  let mutate s =
    let b = Bytes.of_string s and len = String.length s in
    match Random.State.int rand 3 with
    | 0 ->
        let i = Random.State.int rand len in
        let bit = 1 lsl Random.State.int rand 8 in
        Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor bit);
        Bytes.to_string b
    | 1 ->
        let width = if Random.State.bool rand then 4 else 8 in
        let i = Random.State.int rand (len - width + 1) in
        let w = List.nth words (Random.State.int rand (List.length words)) in
        if width = 4 then Bytes.set_int32_le b i (Int64.to_int32 w)
        else Bytes.set_int64_le b i w;
        Bytes.to_string b
    | _ ->
        s ^ String.init (1 + Random.State.int rand 8) (fun _ ->
                Char.chr (Random.State.int rand 256))
  in
  let check name count s reencode_load =
    for _ = 1 to count do
      let bad = mutate s in
      match reencode_load bad with
      | exception Graph_io.Parse_error _ -> ()
      | s' ->
          if s' <> bad then
            Alcotest.failf "%s: accepted a non-canonical mutation" name
    done
  in
  for _ = 1 to 100 do
    let g = QCheck2.Gen.generate1 ~rand gen in
    let labels =
      if Random.State.bool rand then None
      else begin
        let t = Graph_io.Label_table.create () in
        for l = 0 to Digraph.label_count g - 1 do
          ignore (Graph_io.Label_table.intern t (Printf.sprintf "label%d" l))
        done;
        Some t
      end
    in
    let c = Compress_reach.compress g in
    List.iter
      (fun format ->
        let name = format_of_backend format in
        check name 30 (Graph_io.to_snapshot_string ?labels ~format g) (fun bad ->
            let g', labels = Graph_io.of_binary_string bad in
            let kind =
              match bad.[4] with
              | 'M' -> Digraph.Mapped
              | 'V' -> Digraph.Varint
              | _ -> Digraph.Flat
            in
            Digraph.validate g';
            Graph_io.to_snapshot_string ~labels ~format:kind g');
        let graph_format = format in
        check ("'C' over " ^ name) 10
          (Compressed_io.to_binary_string ~graph_format c) (fun bad ->
            Compressed_io.to_binary_string ~graph_format
              (Compressed_io.of_binary_string bad));
        List.iter
          (fun algorithm ->
            check
              ("'I' " ^ Reach_index.algorithm_name algorithm ^ " over " ^ name)
              5
              (Reach_index_io.to_binary_string ~graph_format
                 (Reach_index.build ~algorithm g)) (fun bad ->
                Reach_index_io.to_binary_string ~graph_format
                  (Reach_index_io.of_binary_string bad)))
          Reach_index.all_algorithms)
      [ Digraph.Flat; Digraph.Mapped; Digraph.Varint ]
  done

(* ------------------------------------------------------------------ *)
(* Backend equivalence *)

let backends_of g =
  let gm =
    with_tmp_file (fun path ->
        Graph_io.save_binary ~format:Digraph.Mapped path g;
        fst (Graph_io.load ~mmap:true path))
  in
  (* Keep the temp file unlinked-after-load: the mapping stays valid on
     POSIX even after the unlink above. *)
  [ ("flat", Digraph.to_flat g); ("mmap", gm); ("varint", Digraph.to_varint g) ]

let slices_equal (base_a, start_a, len_a) (base_b, start_b, len_b) =
  len_a = len_b
  && (let rec go i =
        i >= len_a || (base_a.{start_a + i} = base_b.{start_b + i} && go (i + 1))
      in
      go 0)

(* [keep_with_succ_in] against [mem_edge] on the flat reference, for
   every node as a singleton target, the even nodes, and a set that is
   its own target (a member dropped earlier no longer counts). *)
let check_keep name gb reference =
  let n = Digraph.n reference in
  let all = List.init n Fun.id in
  let has_succ_in v t = List.exists (fun w -> Digraph.mem_edge reference v w && t w) all in
  List.iter
    (fun w ->
      let s = Bitset.of_list n all in
      let dropped = Digraph.keep_with_succ_in gb s (Bitset.of_list n [ w ]) in
      let kept = List.filter (fun v -> has_succ_in v (fun x -> x = w)) all in
      if Bitset.to_list s <> kept || dropped <> (List.length kept < n) then
        QCheck2.Test.fail_reportf "%s: keep_with_succ_in {%d} differs" name w)
    all;
  let even w = w land 1 = 0 in
  let s = Bitset.of_list n all in
  let (_ : bool) = Digraph.keep_with_succ_in gb s (Bitset.of_list n (List.filter even all)) in
  if Bitset.to_list s <> List.filter (fun v -> has_succ_in v even) all then
    QCheck2.Test.fail_reportf "%s: keep_with_succ_in evens differs" name;
  (* Its own target: the reference is the same walk, ascending, over
     the flat arrays. *)
  let own = Bitset.of_list n all in
  let (_ : bool) = Digraph.keep_with_succ_in gb own own in
  let expected = Bitset.of_list n all in
  List.iter
    (fun v ->
      if not (List.exists (fun w -> Digraph.mem_edge reference v w && Bitset.mem expected w) all)
      then Bitset.remove expected v)
    all;
  if not (Bitset.equal own expected) then
    QCheck2.Test.fail_reportf "%s: keep_with_succ_in on itself differs" name

(* [succ_labelled] against [mem_edge] and the labels of the flat
   reference: set l holds exactly the nodes with a successor labelled l,
   or the array is empty when the sets would outweigh the out-CSR; and
   the reversed graph's sets are the nodes with a predecessor so
   labelled. *)
let check_succ_labelled name gb reference =
  let n = Digraph.n reference and k = Digraph.label_count reference in
  let check name gb edge =
    let sets = Digraph.succ_labelled gb in
    let words = (n + 62) / 63 |> Int.max 1 in
    if k * words > n + Digraph.m reference + 1 then begin
      if sets <> [||] then
        QCheck2.Test.fail_reportf "%s: succ_labelled built over the size cap"
          name
    end
    else begin
      if Array.length sets <> k then
        QCheck2.Test.fail_reportf "%s: succ_labelled has %d sets for %d labels"
          name (Array.length sets) k;
      Array.iteri
        (fun l set ->
          let want =
            List.filter
              (fun v ->
                List.exists
                  (fun w -> edge v w && Digraph.label reference w = l)
                  (List.init n Fun.id))
              (List.init n Fun.id)
          in
          if Bitset.to_list set <> want then
            QCheck2.Test.fail_reportf "%s: succ_labelled %d differs" name l)
        sets
    end
  in
  check name gb (Digraph.mem_edge reference);
  check (name ^ " reversed") (Digraph.reverse gb) (fun v w ->
      Digraph.mem_edge reference w v)

let accessor_equiv_prop g =
  let n = Digraph.n g in
  let reference = Digraph.to_flat g in
  List.iter
    (fun (name, gb) ->
      if Digraph.backend_name gb <> name then
        QCheck2.Test.fail_reportf "expected %s backend, got %s" name
          (Digraph.backend_name gb);
      Digraph.validate gb;
      if Digraph.label_count gb <> Digraph.label_count reference then
        QCheck2.Test.fail_reportf "%s: label_count differs" name;
      for v = 0 to n - 1 do
        if Digraph.label gb v <> Digraph.label reference v then
          QCheck2.Test.fail_reportf "%s: label %d differs" name v;
        if Digraph.out_degree gb v <> Digraph.out_degree reference v then
          QCheck2.Test.fail_reportf "%s: out_degree %d differs" name v;
        if Digraph.in_degree gb v <> Digraph.in_degree reference v then
          QCheck2.Test.fail_reportf "%s: in_degree %d differs" name v;
        (* succ_slice on the varint backend is decoded into scratch; the
           reference slice lives in the flat array, so comparing the two
           views directly is safe. *)
        if not (slices_equal (Digraph.succ_slice gb v) (Digraph.succ_slice reference v))
        then QCheck2.Test.fail_reportf "%s: succ_slice %d differs" name v;
        if not (slices_equal (Digraph.pred_slice gb v) (Digraph.pred_slice reference v))
        then QCheck2.Test.fail_reportf "%s: pred_slice %d differs" name v;
        let via_iter = ref [] in
        Digraph.iter_succ gb v (fun w -> via_iter := w :: !via_iter);
        let expected =
          List.rev (Digraph.fold_succ reference v (fun acc w -> w :: acc) [])
        in
        if List.rev !via_iter <> expected then
          QCheck2.Test.fail_reportf "%s: iter_succ %d differs" name v;
        for w = 0 to n - 1 do
          if Digraph.mem_edge gb v w <> Digraph.mem_edge reference v w then
            QCheck2.Test.fail_reportf "%s: mem_edge (%d,%d) differs" name v w
        done
      done;
      check_keep name gb reference;
      check_succ_labelled name gb reference;
      (* Reverse shares the sides: spot-check it too. *)
      let rb = Digraph.reverse gb and rr = Digraph.reverse reference in
      for v = 0 to n - 1 do
        if Digraph.out_degree rb v <> Digraph.out_degree rr v then
          QCheck2.Test.fail_reportf "%s: reverse out_degree %d differs" name v
      done)
    (backends_of g);
  true

(* The label index of [g]: every slice ascends and agrees with
   [Digraph.label], together they partition V, and labels outside
   [0, label_count) give an empty slice. *)
let check_label_index name g =
  let n = Digraph.n g and lc = Digraph.label_count g in
  let seen = Array.make n 0 in
  for l = 0 to lc - 1 do
    let ids = Digraph.label_ids g in
    let start = Digraph.label_first g l and len = Digraph.label_len g l in
    for i = start to start + len - 1 do
      let v = ids.(i) in
      if i > start && ids.(i - 1) >= v then
        QCheck2.Test.fail_reportf "%s: label %d slice not ascending" name l;
      if Digraph.label g v <> l then
        QCheck2.Test.fail_reportf "%s: node %d in slice of label %d" name v l;
      seen.(v) <- seen.(v) + 1
    done
  done;
  Array.iteri
    (fun v k ->
      if k <> 1 then
        QCheck2.Test.fail_reportf "%s: node %d in %d label slices" name v k)
    seen;
  List.iter
    (fun l ->
      let len = Digraph.label_len g l in
      if len <> 0 then
        QCheck2.Test.fail_reportf "%s: label %d outside the range has %d nodes"
          name l len)
    [ -1; lc; lc + 7 ]

let label_index_prop g =
  List.iter
    (fun (name, gb) ->
      check_label_index name gb;
      (* Relabel after the index was built: the new graph derives its
         own index and the old one keeps its own. *)
      let relabelled =
        Digraph.with_labels gb
          (Array.init (Digraph.n gb) (fun v -> (Digraph.label gb v + v) mod 3))
      in
      check_label_index (name ^ " relabelled") relabelled;
      check_label_index name gb)
    (backends_of g);
  true

let label_index_empty () =
  Alcotest.(check int) "no nodes" 0 (Digraph.label_len Digraph.empty 0);
  Alcotest.(check int) "no ids" 0 (Array.length (Digraph.label_ids Digraph.empty));
  Alcotest.(check int) "label past the count" 0 (Digraph.label_len Digraph.empty 1)

let bfs_equiv_prop g =
  let n = Digraph.n g in
  let reference = Digraph.to_flat g in
  List.iter
    (fun (name, gb) ->
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          if Traversal.bfs_reaches gb s t <> Traversal.bfs_reaches reference s t
          then QCheck2.Test.fail_reportf "%s: BFS (%d,%d) differs" name s t;
          if
            Traversal.bibfs_reaches gb s t
            <> Traversal.bibfs_reaches reference s t
          then QCheck2.Test.fail_reportf "%s: biBFS (%d,%d) differs" name s t
        done
      done)
    (backends_of g);
  true

(* compressR must produce bit-identical results (same hypernode ids, same
   compressed graph) on every backend, under 1, 2 and 4 domains. *)
let compress_equiv_prop (g, domains) =
  let node_map c = Array.init (Digraph.n g) (Compressed.hypernode c) in
  let reference = Compress_reach.compress (Digraph.to_flat g) in
  Pool.with_pool ~domains (fun pool ->
      List.iter
        (fun (name, gb) ->
          let c = Compress_reach.compress ~pool gb in
          if not (Digraph.equal (Compressed.graph c) (Compressed.graph reference))
          then
            QCheck2.Test.fail_reportf "%s/%d domains: compressed graph differs"
              name domains;
          if node_map c <> node_map reference then
            QCheck2.Test.fail_reportf "%s/%d domains: node map differs" name
              domains)
        (backends_of g));
  true

(* Parallel slice decoding: concurrent succ_slice calls from several
   domains must each see their own scratch buffer. *)
let parallel_scratch_prop (g, domains) =
  let n = Digraph.n g in
  if n = 0 then true
  else begin
    let gv = Digraph.to_varint g in
    let reference = Digraph.to_flat g in
    let expected =
      Array.init n (fun v ->
          let base, start, len = Digraph.succ_slice reference v in
          Array.init len (fun i -> base.{start + i}))
    in
    let rounds = 64 in
    let bad = Atomic.make (-1) in
    Pool.with_pool ~domains (fun pool ->
        Pool.parallel_for pool ~n:(rounds * n) (fun i ->
            let v = i mod n in
            let base, start, len = Digraph.succ_slice gv v in
            let ok =
              len = Array.length expected.(v)
              && (let rec go j =
                    j >= len
                    || (base.{start + j} = expected.(v).(j) && go (j + 1))
                  in
                  go 0)
            in
            if not ok then Atomic.set bad v));
    if Atomic.get bad >= 0 then
      QCheck2.Test.fail_reportf "concurrent succ_slice corrupted node %d"
        (Atomic.get bad);
    true
  end

(* One graph on each store: the heap graph, its 'M' snapshot mapped and
   parsed eagerly, and its 'V' snapshot.  The first three are the one
   CSR store, on the heap or over the file; a mapped graph's slices and
   [keep_with_succ_in] read the file's pages in place, the latter through
   the same C kernel as the heap graph. *)
let stores_of g =
  let m = Graph_io.to_snapshot_string ~format:Digraph.Mapped g in
  let mapped =
    with_tmp_file (fun path ->
        write_file path m;
        fst (Graph_io.load ~mmap:true path))
  in
  let varint = Graph_io.to_snapshot_string ~format:Digraph.Varint g in
  [
    ("heap", Digraph.Flat, g);
    ("mmap", Digraph.Mapped, mapped);
    ("eager 'M'", Digraph.Flat, fst (Graph_io.of_binary_string m));
    ("varint", Digraph.Varint, fst (Graph_io.of_binary_string varint));
  ]

let slice_list (base, start, len) = List.init len (fun i -> base.{start + i})

let shared_store_prop (g, p) =
  let answer = Bounded_sim.eval p g in
  List.iter
    (fun (name, backend, gb) ->
      if Digraph.backend gb <> backend then
        QCheck2.Test.fail_reportf "%s: loaded on the %s backend" name
          (Digraph.backend_name gb);
      for v = 0 to Digraph.n g - 1 do
        if slice_list (Digraph.succ_slice gb v) <> slice_list (Digraph.succ_slice g v)
        then QCheck2.Test.fail_reportf "%s: succ_slice %d differs" name v;
        if slice_list (Digraph.pred_slice gb v) <> slice_list (Digraph.pred_slice g v)
        then QCheck2.Test.fail_reportf "%s: pred_slice %d differs" name v
      done;
      check_keep name gb g;
      check_succ_labelled name gb g;
      if not (Pattern.result_equal (Bounded_sim.eval p gb) answer) then
        QCheck2.Test.fail_reportf "%s: Bounded_sim.eval differs" name)
    (stores_of g);
  true

(* A mapped graph's slices are views into the file's pages, so two of
   them stay valid together. *)
let mapped_slices_live_together () =
  let g = Digraph.make ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 0) ] in
  with_tmp_file (fun path ->
      Graph_io.save_binary ~format:Digraph.Mapped path g;
      let gm, _ = Graph_io.load ~mmap:true path in
      let s0 = Digraph.succ_slice gm 0 and s1 = Digraph.succ_slice gm 1 in
      let p3 = Digraph.pred_slice gm 3 and p0 = Digraph.pred_slice gm 0 in
      Alcotest.(check (list int)) "succ 0" [ 1; 2 ] (slice_list s0);
      Alcotest.(check (list int)) "succ 1" [ 3 ] (slice_list s1);
      Alcotest.(check (list int)) "pred 3" [ 1; 2 ] (slice_list p3);
      Alcotest.(check (list int)) "pred 0" [ 3 ] (slice_list p0))

(* ------------------------------------------------------------------ *)

let arb_graph = Testutil.arbitrary_digraph ()
let arb_bigger = Testutil.arbitrary_digraph ~max_n:40 ~max_labels:5 ()

let arb_graph_domains =
  let gen =
    let open QCheck2.Gen in
    let* g = Testutil.digraph_gen ~max_n:24 () in
    let* domains = QCheck2.Gen.oneofl [ 1; 2; 4 ] in
    pure (g, domains)
  in
  (gen, fun (g, d) -> Printf.sprintf "%s domains=%d" (Testutil.digraph_print g) d)

let format_props =
  [
    Testutil.qtest ~count:100 "mmap snapshot roundtrip is exact and canonical"
      arb_bigger
      (roundtrip_prop Digraph.Mapped);
    Testutil.qtest ~count:100 "varint snapshot roundtrip is exact and canonical"
      arb_bigger
      (roundtrip_prop Digraph.Varint);
    Testutil.qtest ~count:100 "flat snapshot roundtrip is exact and canonical"
      arb_bigger
      (roundtrip_prop Digraph.Flat);
    Testutil.qtest ~count:25 "every mmap snapshot prefix is rejected" arb_graph
      (truncation_prop Digraph.Mapped);
    Testutil.qtest ~count:25 "every varint snapshot prefix is rejected"
      arb_graph
      (truncation_prop Digraph.Varint);
    Testutil.qtest ~count:60 "mmap file load (eager and zero-copy)" arb_bigger
      mmap_load_prop;
    Testutil.qtest ~count:100 "varint load lands on varint backend" arb_bigger
      varint_backend_load_prop;
  ]

(* Multi-byte varints: a degree of 300 and gaps past 127 and 16383, which
   the small random graphs above never reach. *)
let keep_with_succ_in_wide () =
  let n = 40_000 in
  let hub = List.init 300 (fun i -> (0, 1 + (i * 131))) in
  let far = [ (1, 20_000); (1, 39_999); (2, 5) ] in
  let g = Digraph.make ~n (hub @ far) in
  let reference = Digraph.to_flat g in
  let probes = [ 0; 1; 5; 132; 263; 1 + (299 * 131); 20_000; 39_999; 39_998 ] in
  let sources = [ 0; 1; 2; 3 ] in
  List.iter
    (fun (name, gb) ->
      List.iter
        (fun w ->
          let s = Bitset.of_list n sources in
          let (_ : bool) = Digraph.keep_with_succ_in gb s (Bitset.of_list n [ w ]) in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: sources with successor %d" name w)
            (List.filter (fun v -> Digraph.mem_edge reference v w) sources)
            (Bitset.to_list s))
        probes)
    (backends_of g)

let equivalence_props =
  [
    Testutil.qtest ~count:120 "accessors agree across backends" arb_bigger
      accessor_equiv_prop;
    Testutil.qtest ~count:120 "label index partitions V on every backend"
      arb_bigger label_index_prop;
    Testutil.qtest ~count:40 "BFS and biBFS agree across backends" arb_graph
      bfs_equiv_prop;
    Testutil.qtest ~count:40 "compressR bit-identical across backends and domains"
      arb_graph_domains compress_equiv_prop;
    Testutil.qtest ~count:20 "parallel slice decode is domain-safe"
      arb_graph_domains parallel_scratch_prop;
    Testutil.qtest ~count:100
      "heap, mapped, eager 'M' and varint stores agree on slices, keep and eval"
      (Testutil.arbitrary_graph_pattern ~max_n:16 ())
      shared_store_prop;
  ]

let () =
  Alcotest.run "storage"
    [
      ( "codec",
        [
          Alcotest.test_case "varint roundtrip" `Quick codec_roundtrip;
          Alcotest.test_case "varint errors" `Quick codec_errors;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "mapped snapshot" `Quick mapped_corruption;
          Alcotest.test_case "varint snapshot" `Quick varint_corruption;
          Alcotest.test_case "eager loads reject every mutation but canonical ones"
            `Quick eager_mutations;
        ] );
      ("format_props", format_props);
      ( "equivalence",
        equivalence_props
        @ [
            Alcotest.test_case "keep_with_succ_in over multi-byte varints"
              `Quick keep_with_succ_in_wide;
            Alcotest.test_case "two live slices of a mapped graph" `Quick
              mapped_slices_live_together;
          ] );
      ("label_index", [ Alcotest.test_case "empty graph" `Quick label_index_empty ]);
    ]
