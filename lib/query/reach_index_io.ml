let bad fmt = Graph_io.fail 0 fmt

(* Version 2 allows the GRAIL condensation to be embedded as any Graph_io
   snapshot kind ('G', 'M' or 'V'), 8-byte aligned when 'M'; version-1
   snapshots (always 'G') still load. *)
let binary_version = 2

let tag_of_backend = function
  | Reach_index.Tree _ -> 0
  | Reach_index.Hop _ -> 1
  | Reach_index.Grl _ -> 2

let to_binary_string ?(graph_format = Digraph.Flat) t =
  let graph_n = Reach_index.indexed_n t in
  let buf = Buffer.create (256 + (8 * graph_n)) in
  Graph_io.add_header buf 'I' binary_version;
  Buffer.add_char buf (Char.chr (tag_of_backend (Reach_index.backend t)));
  let node_map = Reach_index.node_map t in
  Buffer.add_char buf (match node_map with None -> '\000' | Some _ -> '\001');
  Buffer.add_int64_le buf (Int64.of_int graph_n);
  (match node_map with
  | None -> ()
  | Some m ->
      Buffer.add_int64_le buf (Int64.of_int (Array.length m));
      Array.iter (fun h -> Buffer.add_int32_le buf (Int32.of_int h)) m);
  let self_loops = Reach_index.self_loops t in
  Buffer.add_int64_le buf (Int64.of_int (Bitset.cardinal self_loops));
  for u = 0 to graph_n - 1 do
    if Bitset.mem self_loops u then Buffer.add_int32_le buf (Int32.of_int u)
  done;
  let add_i32_array a =
    Array.iter (fun x -> Buffer.add_int32_le buf (Int32.of_int x)) a
  in
  (match Reach_index.backend t with
  | Reach_index.Tree tc ->
      let post = Tree_cover.post tc and offsets = Tree_cover.offsets tc in
      Buffer.add_int64_le buf (Int64.of_int (Array.length post));
      add_i32_array (Tree_cover.comp tc);
      add_i32_array post;
      for c = 0 to Array.length post - 1 do
        Buffer.add_int32_le buf (Int32.of_int (offsets.(c + 1) - offsets.(c)))
      done;
      add_i32_array (Tree_cover.pairs tc)
  | Reach_index.Hop th ->
      let lout, lin = Two_hop.labels th in
      let add_labels side =
        Array.iter
          (fun l ->
            Buffer.add_int32_le buf (Int32.of_int (Array.length l));
            add_i32_array l)
          side
      in
      add_labels lout;
      add_labels lin
  | Reach_index.Grl gl ->
      add_i32_array (Grail.comp gl);
      (* [add_any_blob] zero-pads 'M' blobs to the next multiple of 8 of
         the buffer length; the buffer lands at file offset 0, so the
         blob's int64 sections are file-aligned and mappable in place. *)
      Graph_io.add_any_blob buf ~format:graph_format (Grail.cond gl);
      let intervals = Grail.intervals gl in
      Buffer.add_int64_le buf (Int64.of_int (Array.length intervals));
      Array.iter
        (fun iv ->
          Array.iter
            (fun (lo, post) ->
              Buffer.add_int32_le buf (Int32.of_int lo);
              Buffer.add_int32_le buf (Int32.of_int post))
            iv)
        intervals);
  Buffer.contents buf

(* Counts are read before the payload they size, and the cursor checks
   every read against the input, so corrupt input fails with
   Graph_io.Parse_error rather than a crash or an absurd allocation. *)

let i32_pairs c count what =
  let a = Graph_io.i32_array c (2 * count) what in
  Array.init count (fun i -> (a.(2 * i), a.((2 * i) + 1)))

let of_cursor c =
  Graph_io.read_header c 'I' ~versions:(1, binary_version);
  let tag = Graph_io.u8 c "algorithm tag" in
  if tag > 2 then bad "unknown index algorithm tag %d" tag;
  let has_map = Graph_io.u8 c "node-map flag" in
  if has_map > 1 then bad "bad node-map flag %d" has_map;
  let graph_n = Graph_io.i64 c "indexed node count" in
  (* Each indexed node takes at least one int32 of the payload below, so
     the input bounds the count before anything is sized by it. *)
  if graph_n > Graph_io.remaining c / 4 then
    bad "indexed node count %d exceeds the snapshot" graph_n;
  let node_map =
    if has_map = 0 then None
    else begin
      let orig_n = Graph_io.i64 c "original node count" in
      Some (Graph_io.i32_array c orig_n "node map")
    end
  in
  let loop_count = Graph_io.i64 c "self-loop count" in
  if loop_count > graph_n then bad "self-loop count %d out of range" loop_count;
  let self_loops = Bitset.create graph_n in
  let prev = ref (-1) in
  for _ = 1 to loop_count do
    let u = Graph_io.i32 c "self-loop id" in
    if u <= !prev || u >= graph_n then
      bad "self-loop ids must be strictly ascending and in range (got %d)" u;
    prev := u;
    Bitset.add self_loops u
  done;
  let backend =
    match tag with
    | 0 ->
        let k = Graph_io.i64 c "condensation size" in
        let comp = Graph_io.i32_array c graph_n "component map" in
        let post = Graph_io.i32_array c k "post ranks" in
        let offsets = Array.make (k + 1) 0 in
        for r = 0 to k - 1 do
          offsets.(r + 1) <- offsets.(r) + Graph_io.i32 c "interval count"
        done;
        let pairs = Graph_io.i32_array c (2 * offsets.(k)) "intervals" in
        (match Tree_cover.of_parts ~comp ~post ~offsets ~pairs with
        | tc -> Reach_index.Tree tc
        | exception Invalid_argument msg -> bad "%s" msg)
    | 1 ->
        let rd_labels what =
          Array.init graph_n (fun _ ->
              let len = Graph_io.i32 c what in
              let l = Graph_io.i32_array c len what in
              Array.iter
                (fun h ->
                  if h < 0 || h >= graph_n then
                    bad "%s entry %d out of range" what h)
                l;
              l)
        in
        let lout = rd_labels "out-labels" in
        let lin = rd_labels "in-labels" in
        (match Two_hop.of_labels ~lout ~lin with
        | th -> Reach_index.Hop th
        | exception Invalid_argument msg -> bad "%s" msg)
    | _ ->
        let comp = Graph_io.i32_array c graph_n "component map" in
        let cond, _ = Graph_io.graph_blob c in
        let k = Graph_io.i64 c "traversal count" in
        if k <= 0 || k > 1024 then bad "traversal count %d out of range" k;
        let cn = Digraph.n cond in
        let intervals =
          Array.init k (fun _ -> i32_pairs c cn "traversal intervals")
        in
        (match Grail.of_parts ~comp ~cond ~intervals with
        | gl -> Reach_index.Grl gl
        | exception Invalid_argument msg -> bad "%s" msg)
  in
  Graph_io.expect_end c;
  match Reach_index.v ~graph_n ?node_map ~self_loops ~backend () with
  | t -> t
  | exception Invalid_argument msg -> bad "%s" msg

let of_binary_string s = of_cursor (Graph_io.cursor s)

let save ?graph_format path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_binary_string ?graph_format t))

let load ?mmap path = Graph_io.load_file ?mmap path of_cursor
