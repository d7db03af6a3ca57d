let fail = Graph_io.fail

let to_string c =
  let gr = Compressed.graph c in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Digraph.n gr));
  for h = 0 to Digraph.n gr - 1 do
    let l = Digraph.label gr h in
    if l <> 0 then Buffer.add_string buf (Printf.sprintf "l %d %d\n" h l)
  done;
  Digraph.iter_edges gr (fun u v ->
      Buffer.add_string buf (Printf.sprintf "e %d %d\n" u v));
  let original_n = Compressed.original_n c in
  Buffer.add_string buf (Printf.sprintf "o %d\n" original_n);
  for v = 0 to original_n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "m %d %d\n" v (Compressed.hypernode c v))
  done;
  Buffer.contents buf

let of_string s =
  let nr = ref (-1) in
  let labels = ref [||] in
  let edges = ref [] in
  let original_n = ref (-1) in
  let node_map = ref [||] in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let parts =
        String.split_on_char ' ' (String.trim line)
        |> List.filter (fun p -> p <> "")
      in
      let int_of p =
        match int_of_string_opt p with
        | Some x -> x
        | None -> fail lineno "expected integer, got %S" p
      in
      let hyper p =
        let h = int_of p in
        if !nr < 0 || h < 0 || h >= !nr then
          fail lineno "hypernode %S out of range" p;
        h
      in
      match parts with
      | [] -> ()
      | [ "n"; count ] ->
          if !nr >= 0 then fail lineno "duplicate hypernode-count line";
          let c = int_of count in
          if c < 0 then fail lineno "negative hypernode count";
          nr := c;
          labels := Array.make c 0
      | [ "l"; h; l ] -> !labels.(hyper h) <- int_of l
      | [ "e"; u; v ] -> edges := (hyper u, hyper v) :: !edges
      | [ "o"; count ] ->
          if !original_n >= 0 then fail lineno "duplicate original-count line";
          let c = int_of count in
          if c < 0 then fail lineno "negative original node count";
          original_n := c;
          node_map := Array.make c (-1)
      | [ "m"; v; h ] ->
          if !original_n < 0 then fail lineno "map entry before 'o' line";
          let v = int_of v in
          if v < 0 || v >= !original_n then
            fail lineno "original node %d out of range" v;
          !node_map.(v) <- hyper h
      | kw :: _ -> fail lineno "unknown or malformed record %S" kw)
    (String.split_on_char '\n' s);
  if !nr < 0 then fail 1 "missing hypernode-count line";
  if !original_n < 0 then fail 1 "missing original-count line";
  Array.iteri
    (fun v h -> if h < 0 then fail 1 "node %d missing from the map" v)
    !node_map;
  let graph = Digraph.make ~n:!nr ~labels:!labels !edges in
  match Compressed.v ~graph ~node_map:!node_map with
  | c -> c
  | exception Invalid_argument msg -> fail 1 "%s" msg

(* ------------------------------------------------------------------ *)
(* Binary snapshots: the Graph_io header with kind 'C', then the
   compressed graph Gr as a nested Graph_io graph blob, the original node
   count, and the node map R as int32 entries.  The inverse index
   (members) is rederived by [Compressed.v] on load, exactly as for the
   text format. *)

(* Version 2 allows the embedded Gr blob to be any Graph_io snapshot kind
   ('G', 'M' or 'V'); version-1 snapshots (always 'G') still load. *)
let binary_version = 2

let to_binary_string ?(graph_format = Digraph.Flat) c =
  let gr = Compressed.graph c in
  let original_n = Compressed.original_n c in
  let buf = Buffer.create (64 + (12 * Digraph.n gr) + (4 * Digraph.m gr) + (4 * original_n)) in
  Graph_io.add_header buf 'C' binary_version;
  (* The blob starts at offset 8, already 8-aligned — an 'M' blob needs no
     padding here. *)
  Graph_io.add_any_blob buf ~format:graph_format gr;
  Buffer.add_int64_le buf (Int64.of_int original_n);
  for v = 0 to original_n - 1 do
    Buffer.add_int32_le buf (Int32.of_int (Compressed.hypernode c v))
  done;
  Buffer.contents buf

let of_cursor c =
  Graph_io.read_header c 'C' ~versions:(1, binary_version);
  let graph, _table = Graph_io.graph_blob c in
  let original_n = Graph_io.i64 c "original count" in
  let node_map = Graph_io.i32_array c original_n "node map" in
  Graph_io.expect_end c;
  match Compressed.v ~graph ~node_map with
  | c -> c
  | exception Invalid_argument msg -> fail 0 "%s" msg

let of_binary_string s = of_cursor (Graph_io.cursor s)

let save_binary ?graph_format path c =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_binary_string ?graph_format c))

let save path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string c))

let load ?mmap path = Graph_io.load_file ?mmap ~text:of_string path of_cursor
