module Label_table = struct
  type t = {
    by_name : int Mono.Stbl.t;
    mutable names : string array;
    mutable count : int;
  }

  let create () = { by_name = Mono.Stbl.create 16; names = Array.make 8 ""; count = 0 }

  let intern t name =
    match Mono.Stbl.find_opt t.by_name name with
    | Some id -> id
    | None ->
        if t.count = Array.length t.names then begin
          let bigger = Array.make (2 * t.count) "" in
          Array.blit t.names 0 bigger 0 t.count;
          t.names <- bigger
        end;
        let id = t.count in
        t.names.(id) <- name;
        t.count <- t.count + 1;
        Mono.Stbl.replace t.by_name name id;
        id

  let name t id =
    if id < 0 || id >= t.count then raise Not_found;
    t.names.(id)

  let count t = t.count
end

exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun s -> raise (Parse_error (line, s))) fmt

let of_string s =
  let table = Label_table.create () in
  (* Unlabeled nodes get "_"; it is interned lazily so label ids round-trip
     unchanged when every node carries an explicit label. *)
  let n = ref (-1) in
  let labels = ref [||] in
  let edges = ref [] in
  let lines = String.split_on_char '\n' s in
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
      match parts with
      | [] -> ()
      | [ "n"; count ] ->
          if !n >= 0 then fail lineno "duplicate node-count line";
          let c = int_of count in
          if c < 0 then fail lineno "negative node count";
          n := c;
          labels := Array.make c (-1)
      | "n" :: _ -> fail lineno "malformed node-count line"
      | [ "l"; v; name ] ->
          if !n < 0 then fail lineno "label before node-count line";
          let v = int_of v in
          if v < 0 || v >= !n then fail lineno "node %d out of range" v;
          !labels.(v) <- Label_table.intern table name
      | "l" :: _ -> fail lineno "malformed label line"
      | [ "e"; u; v ] ->
          if !n < 0 then fail lineno "edge before node-count line";
          let u = int_of u and v = int_of v in
          if u < 0 || u >= !n then fail lineno "node %d out of range" u;
          if v < 0 || v >= !n then fail lineno "node %d out of range" v;
          edges := (u, v) :: !edges
      | "e" :: _ -> fail lineno "malformed edge line"
      | kw :: _ -> fail lineno "unknown record %S" kw)
    lines;
  if !n < 0 then fail 1 "missing node-count line";
  let labels =
    Array.map
      (fun l -> if l >= 0 then l else Label_table.intern table "_")
      !labels
  in
  (Digraph.make ~n:!n ~labels !edges, table)

let to_string ?labels g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Digraph.n g));
  for v = 0 to Digraph.n g - 1 do
    let l = Digraph.label g v in
    let name =
      match labels with
      | Some t -> (try Label_table.name t l with Not_found -> Printf.sprintf "l%d" l)
      | None -> Printf.sprintf "l%d" l
    in
    if name <> "_" then Buffer.add_string buf (Printf.sprintf "l %d %s\n" v name)
  done;
  Digraph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "e %d %d\n" u v));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The QPGC container.

   Every binary snapshot -- the three graph kinds below, and the 'C' and
   'I' snapshots that Compressed_io and Reach_index_io lay out on top --
   starts with one 8-byte header, is read through one bounds-checked
   cursor, nests its graphs as the blobs below, and fails with
   [Parse_error] (line 0):

     offset  size  field
     0       4     magic "QPGC"
     4       1     kind
     5       1     version
     6       2     reserved (0)

   All integers are little-endian. *)

let magic = "QPGC"
let version = 1
let mapped_version = 1
let varint_version = 1

let bad fmt = fail 0 fmt

let add_header buf kind version =
  Buffer.add_string buf magic;
  Buffer.add_char buf kind;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf '\000';
  Buffer.add_char buf '\000'

(* A forward reader over a snapshot.  The input is a string, or, on an
   mmap load, a file read on demand one field or array at a time, so a
   blob the reader maps and moves past never transits the heap.  [s]
   holds the input bytes [off, off + String.length s). *)
type cursor = {
  mutable s : string;
  mutable off : int;
  mutable pos : int;  (* input offset of the next read *)
  len : int;  (* input length *)
  file : in_channel option;
}

let cursor s = { s; off = 0; pos = 0; len = String.length s; file = None }

let remaining c = c.len - c.pos

(* A snapshot is read whole.  A top-level reader checks this after its
   last read and before it builds its value, so that the input string,
   reachable only from [c], can be freed while it builds. *)
let expect_end c =
  if remaining c <> 0 then bad "%d trailing bytes after snapshot" (remaining c)

let truncated what = bad "binary snapshot truncated reading %s" what

(* Moves past [count] items of [width] bytes and returns the index in
   [c.s] of the first.  Every read of the input goes through here, so a
   truncated or corrupt snapshot fails with Parse_error, never with an
   out-of-bounds access or an absurd allocation. *)
let take c ~width count what =
  if count < 0 || count > (c.len - c.pos) / width then truncated what;
  let k = width * count in
  if c.pos + k > c.off + String.length c.s then begin
    match c.file with
    | None -> truncated what
    | Some ic -> (
        seek_in ic c.pos;
        match really_input_string ic k with
        | s ->
            c.s <- s;
            c.off <- c.pos
        | exception End_of_file -> truncated what)
  end;
  let i = c.pos - c.off in
  c.pos <- c.pos + k;
  i

(* [peek c k] is [take] without moving past the bytes. *)
let peek c k =
  let i = take c ~width:1 k "header" in
  c.pos <- c.pos - k;
  i

let u8 c what =
  let i = take c ~width:1 1 what in
  Char.code c.s.[i]

(* [Int64.to_int] drops bit 63, so a word is in range only when it
   converts back to itself.  Inlined, so that [w] stays unboxed. *)
let[@inline] int_of_word w what =
  let x = Int64.to_int w in
  if x < 0 || Int64.of_int x <> w then bad "%s out of range in binary snapshot" what;
  x

let i64 c what =
  let i = take c ~width:8 1 what in
  int_of_word (String.get_int64_le c.s i) what

let i32 c what =
  let i = take c ~width:4 1 what in
  let x = Int32.to_int (String.get_int32_le c.s i) in
  if x < 0 then bad "negative %s in binary snapshot" what;
  x

let i32_array c count what =
  let i = take c ~width:4 count what in
  let s = c.s in
  Array.init count (fun j -> Int32.to_int (String.get_int32_le s (i + (4 * j))))

(* [count] int32 or int64 entries ([width] 4 or 8) into an int Bigarray
   of a CSR store; none may be negative or, as int64, outside the int
   range. *)
let ints_ba c ~width count what : Digraph.int_ba =
  let i = take c ~width count what in
  let s = c.s and a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout count in
  for j = 0 to count - 1 do
    let p = i + (width * j) in
    let x =
      if width = 4 then Int32.to_int (String.get_int32_le s p)
      else int_of_word (String.get_int64_le s p) what
    in
    if x < 0 then bad "negative %s in binary snapshot" what;
    a.{j} <- x
  done;
  a

(* [count] int32 entries, any sign, into an int32 Bigarray. *)
let int32s c count what : Digraph.int32_ba =
  let i = take c ~width:4 count what in
  let s = c.s and a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout count in
  for j = 0 to count - 1 do
    a.{j} <- String.get_int32_le s (i + (4 * j))
  done;
  a

let bytes c k what =
  let i = take c ~width:1 k what in
  String.sub c.s i k

(* [k] bytes of padding, which writers fill with zeros. *)
let zeros c k what =
  if String.exists (fun ch -> ch <> '\000') (bytes c k what) then
    bad "nonzero %s in binary snapshot" what

let read_header c kind ~versions:(lo, hi) =
  let i = take c ~width:1 8 "header" in
  if String.sub c.s i 4 <> magic then bad "bad magic: not a qpgc binary snapshot";
  if c.s.[i + 4] <> kind then
    bad "wrong snapshot kind '%c' (expected '%c')" c.s.[i + 4] kind;
  let v = Char.code c.s.[i + 5] in
  if v < lo || v > hi then bad "unsupported snapshot version %d" v;
  if c.s.[i + 6] <> '\000' || c.s.[i + 7] <> '\000' then
    bad "nonzero reserved header bytes"

(* Shared by the three graph kinds: the label-name table is an int64
   count [k] followed by [k] names (int32 length + bytes), ids 0..k-1 in
   order. *)
let add_names buf labels =
  match labels with
  | None -> Buffer.add_int64_le buf 0L
  | Some t ->
      let k = Label_table.count t in
      Buffer.add_int64_le buf (Int64.of_int k);
      for id = 0 to k - 1 do
        let name = Label_table.name t id in
        Buffer.add_int32_le buf (Int32.of_int (String.length name));
        Buffer.add_string buf name
      done

let read_names c =
  let k = i64 c "label-name count" in
  let table = Label_table.create () in
  for id = 0 to k - 1 do
    let len = i32 c "label-name length" in
    let name = bytes c len "label name" in
    if Label_table.intern table name <> id then
      bad "duplicate label name %S in binary snapshot" name
  done;
  table

(* The loaded CSR, re-validated: the in-mirror, when stored, must agree
   with the out-CSR edge for edge. *)
let of_csr what ?in_csr ~n ~labels ~out_off ~out_adj () =
  let g =
    match Digraph.of_csr_unchecked ?in_csr ~n ~labels ~out_off ~out_adj () with
    | g -> g
    | exception Invalid_argument msg -> bad "%s" msg
  in
  (match Digraph.validate g with
  | () -> ()
  | exception Failure msg -> bad "invalid CSR in %s: %s" what msg);
  g

(* The entries of a CSR array as int32 or int64 values. *)
let add_ints buf ~width (a : Digraph.int_ba) =
  for i = 0 to Bigarray.Array1.dim a - 1 do
    if width = 8 then Buffer.add_int64_le buf (Int64.of_int a.{i})
    else Buffer.add_int32_le buf (Int32.of_int a.{i})
  done

(* ------------------------------------------------------------------ *)
(* 'G': the flat snapshot.

     offset  size          field
     0       8             header, kind 'G', version 1
     8       8             n
     16      8             m
     24      8*(n+1)       out-CSR offsets (int64)
     ...     4*m           out-CSR adjacency (int32)
     ...     4*n           labels (int32)
     ...                   label-name table

   The adjacency and label blobs are the graph's canonical CSR, so loading
   is a header check plus three array reads -- no parsing, no sorting; only
   the in-mirror is rebuilt (O(n + m) counting sort).  Node ids and labels
   are stored as int32: graphs beyond 2^31 nodes do not fit the dense-int
   node model anyway. *)

let add_graph_blob buf ?labels g =
  let n = Digraph.n g and m = Digraph.m g in
  add_header buf 'G' version;
  Buffer.add_int64_le buf (Int64.of_int n);
  Buffer.add_int64_le buf (Int64.of_int m);
  let out_off, out_adj = Digraph.out_csr g in
  add_ints buf ~width:8 out_off;
  add_ints buf ~width:4 out_adj;
  for v = 0 to n - 1 do
    Buffer.add_int32_le buf (Int32.of_int (Digraph.label g v))
  done;
  add_names buf labels

let to_binary_string ?labels g =
  let buf = Buffer.create (32 + (12 * Digraph.n g) + (4 * Digraph.m g)) in
  add_graph_blob buf ?labels g;
  Buffer.contents buf

let flat_blob c =
  read_header c 'G' ~versions:(version, version);
  let n = i64 c "node count" in
  let m = i64 c "edge count" in
  let out_off = ints_ba c ~width:8 (n + 1) "offsets" in
  let out_adj = ints_ba c ~width:4 m "adjacency" in
  let labels = ints_ba c ~width:4 n "labels" in
  let table = read_names c in
  fun () -> (of_csr "binary snapshot" ~n ~labels ~out_off ~out_adj (), table)

(* ------------------------------------------------------------------ *)
(* 'M': the zero-copy mapped snapshot.

   Layout (version 1) -- every section is int64 little-endian and starts at
   an offset that is a multiple of 8 relative to the blob (writers pad the
   stream so nested blobs land 8-aligned absolutely), which lets the loader
   hand out int-kind Bigarray views straight over the mapped pages:

     offset            size      field
     0                 8         header, kind 'M', version 1
     8                 8         n
     16                8         m
     24                8         label_count
     32                8         names_len (byte length of the name table)
     40                8         total_len (whole blob incl. trailing pad)
     48                8*(n+1)   out-CSR offsets
     ...               8*m       out-CSR adjacency
     ...               8*(n+1)   in-CSR offsets
     ...               8*m       in-CSR adjacency
     ...               8*n       labels
     ...               names_len label-name table
     ...               pad to 8

   Unlike 'G', both mirrors are stored, so opening the snapshot is O(1) in
   the graph size: parse the fixed header and the (graph-size-independent)
   name table, then map five views.  The price is a fatter file (~8 bytes
   per stored int); that is page-cache, not heap. *)

let align8 p = (p + 7) land lnot 7

let mapped_header_len = 48

let mapped_section_offsets ~n ~m =
  let off0 = mapped_header_len in
  let adj0 = off0 + (8 * (n + 1)) in
  let ioff0 = adj0 + (8 * m) in
  let iadj0 = ioff0 + (8 * (n + 1)) in
  let lab0 = iadj0 + (8 * m) in
  let names0 = lab0 + (8 * n) in
  (off0, adj0, ioff0, iadj0, lab0, names0)

let add_mapped_blob buf ?labels g =
  while Buffer.length buf land 7 <> 0 do
    Buffer.add_char buf '\000'
  done;
  let n = Digraph.n g and m = Digraph.m g in
  let names =
    let nb = Buffer.create 64 in
    add_names nb labels;
    Buffer.contents nb
  in
  let _, _, _, _, _, names0 = mapped_section_offsets ~n ~m in
  let total_len = align8 (names0 + String.length names) in
  add_header buf 'M' mapped_version;
  Buffer.add_int64_le buf (Int64.of_int n);
  Buffer.add_int64_le buf (Int64.of_int m);
  Buffer.add_int64_le buf (Int64.of_int (Digraph.label_count g));
  Buffer.add_int64_le buf (Int64.of_int (String.length names));
  Buffer.add_int64_le buf (Int64.of_int total_len);
  let out_off, out_adj = Digraph.out_csr g in
  let in_off, in_adj = Digraph.in_csr g in
  List.iter (add_ints buf ~width:8) [ out_off; out_adj; in_off; in_adj ];
  for v = 0 to n - 1 do
    Buffer.add_int64_le buf (Int64.of_int (Digraph.label g v))
  done;
  Buffer.add_string buf names;
  for _ = names0 + String.length names to total_len - 1 do
    Buffer.add_char buf '\000'
  done

(* Zero-copy: the five int64 sections of the blob at [start] become
   int-kind Bigarray views over the file's pages and are never read.
   The structural checks here are O(1) (CSR endpoints); [Digraph.validate]
   does the deep check on demand. *)
let map_sections ic ~start ~n ~m ~label_count =
  let off0, adj0, ioff0, iadj0, lab0, _ = mapped_section_offsets ~n ~m in
  let fd = Unix.descr_of_in_channel ic in
  let section pos len : Digraph.int_ba =
    if len = 0 then Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0
    else
      Bigarray.array1_of_genarray
        (Unix.map_file fd
           ~pos:(Int64.of_int (start + pos))
           Bigarray.int Bigarray.c_layout false [| len |])
  in
  let out_off = section off0 (n + 1) in
  let out_adj = section adj0 m in
  let in_off = section ioff0 (n + 1) in
  let in_adj = section iadj0 m in
  let labels = section lab0 n in
  if n > 0 then begin
    if out_off.{0} <> 0 || out_off.{n} <> m then
      bad "mapped out-offsets do not span [0,m]";
    if in_off.{0} <> 0 || in_off.{n} <> m then
      bad "mapped in-offsets do not span [0,m]"
  end;
  Digraph.of_csr_unchecked ~mapped:true ~label_count ~in_csr:(in_off, in_adj)
    ~n ~labels ~out_off ~out_adj ()

(* Eager parse onto the flat backend, checking everything. *)
let parse_sections c ~n ~m ~label_count =
  let section count what = ints_ba c ~width:8 count what in
  let out_off = section (n + 1) "offsets" in
  let out_adj = section m "adjacency" in
  let in_off = section (n + 1) "in-offsets" in
  let in_adj = section m "in-adjacency" in
  let labels = section n "labels" in
  fun () ->
    let g =
      of_csr "mapped snapshot" ~in_csr:(in_off, in_adj) ~n ~labels ~out_off
        ~out_adj ()
    in
    if Digraph.label_count g <> label_count then
      bad "label count field disagrees with label section";
    g

(* An 'M' blob maps in place when the cursor reads a file (an mmap load)
   and the blob sits at an 8-aligned offset of it; otherwise it parses.
   Before either, the blob must fit the input and its sections must tile
   the declared [total_len] exactly. *)
let mapped_blob c =
  let start = c.pos in
  read_header c 'M' ~versions:(mapped_version, mapped_version);
  let n = i64 c "node count" in
  let m = i64 c "edge count" in
  let label_count = i64 c "label count" in
  let names_len = i64 c "name-table length" in
  let total_len = i64 c "blob length" in
  if label_count < 1 then bad "label count below 1 in mapped snapshot";
  if total_len > c.len - start then truncated "mapped snapshot body";
  let _, _, _, _, _, names0 = mapped_section_offsets ~n ~m in
  if n > total_len / 8 || m > total_len / 8
     || total_len <> align8 (names0 + names_len)
  then bad "mapped snapshot section table does not tile the blob";
  let build =
    match c.file with
    | Some ic when start land 7 = 0 ->
        fun () -> map_sections ic ~start ~n ~m ~label_count
    | _ -> parse_sections c ~n ~m ~label_count
  in
  c.pos <- start + names0;
  let table = read_names c in
  let names_end = start + names0 + names_len in
  if c.pos <> names_end then bad "name table does not fill its declared length";
  zeros c (start + total_len - names_end) "blob padding";
  fun () -> (build (), table)

(* ------------------------------------------------------------------ *)
(* 'V': gap + LEB128 varint adjacency snapshot.

   Layout (version 1), no alignment requirements -- always parsed eagerly:

     offset  size       field
     0       8          header, kind 'V', version 1
     8       8          n
     16      8          m
     24      8          label_count
     32      8          out_data_len
     40      8          in_data_len
     48      4*(n+1)    out index: byte offset of node v's block in out data
     ...     out_data   per node: varint degree, first neighbour, gaps >= 1
     ...     4*(n+1)    in index
     ...     in_data
     ...     4*n        labels (int32)
     ...                label-name table

   The index and stream pairs are [Digraph.varint_rows], the varint
   store's own encoding, and the loaded store goes through
   [Digraph.validate], its checked decoder: minimal-form LEB128 re-decoded
   block by block, so the format is canonical -- loading and
   re-serialising any accepted file is bit-identical. *)

let add_varint_blob buf ?labels g =
  let n = Digraph.n g and m = Digraph.m g in
  let (out_idx, out_data), (in_idx, in_data) = Digraph.varint_rows g in
  let add_rows idx data =
    for i = 0 to Bigarray.Array1.dim idx - 1 do
      Buffer.add_int32_le buf idx.{i}
    done;
    Buffer.add_string buf data
  in
  add_header buf 'V' varint_version;
  Buffer.add_int64_le buf (Int64.of_int n);
  Buffer.add_int64_le buf (Int64.of_int m);
  Buffer.add_int64_le buf (Int64.of_int (Digraph.label_count g));
  Buffer.add_int64_le buf (Int64.of_int (String.length out_data));
  Buffer.add_int64_le buf (Int64.of_int (String.length in_data));
  add_rows out_idx out_data;
  add_rows in_idx in_data;
  for v = 0 to n - 1 do
    Buffer.add_int32_le buf (Int32.of_int (Digraph.label g v))
  done;
  add_names buf labels

let varint_blob c =
  read_header c 'V' ~versions:(varint_version, varint_version);
  let n = i64 c "node count" in
  let m = i64 c "edge count" in
  let label_count = i64 c "label count" in
  let out_len = i64 c "out-stream length" in
  let in_len = i64 c "in-stream length" in
  let out_idx = int32s c (n + 1) "out index" in
  let out_data = bytes c out_len "out stream" in
  let in_idx = int32s c (n + 1) "in index" in
  let in_data = bytes c in_len "in stream" in
  let labels = int32s c n "labels" in
  let table = read_names c in
  fun () ->
    let g =
      Digraph.of_varint_unchecked ~n ~m ~label_count ~labels ~out_idx ~out_data
        ~in_idx ~in_data
    in
    (match Digraph.validate g with
    | () -> ()
    | exception Failure msg -> bad "invalid varint snapshot: %s" msg);
    let top = ref 0 in
    for v = 0 to n - 1 do top := Mono.imax !top (Int32.to_int labels.{v}) done;
    if !top + 1 <> label_count then bad "label count field disagrees with label section";
    (g, table)

(* ------------------------------------------------------------------ *)
(* Nested blobs, kind dispatch and file loading

   Each kind's reader above reads its whole blob and returns the build
   of the graph, so that a top-level load checks the input ends there
   ([expect_end]) before it builds: the input string is then garbage. *)

let read_graph_blob c =
  (* 'M' blobs nested at unaligned positions are preceded by zero
     padding; magic never starts with '\000', so one byte tells. *)
  if c.pos < c.len then begin
    let i = peek c 1 in
    if c.s.[i] = '\000' then zeros c (align8 c.pos - c.pos) "blob padding"
  end;
  let i = peek c 8 in
  match c.s.[i + 4] with
  | 'G' -> flat_blob c
  | 'M' -> mapped_blob c
  | 'V' -> varint_blob c
  | k -> bad "unknown snapshot kind '%c'" k

let graph_blob c = read_graph_blob c ()

let add_any_blob buf ?labels ~(format : Digraph.backend) g =
  match format with
  | Digraph.Flat -> add_graph_blob buf ?labels g
  | Digraph.Mapped -> add_mapped_blob buf ?labels g
  | Digraph.Varint -> add_varint_blob buf ?labels g

let to_snapshot_string ?labels ?(format = Digraph.Flat) g =
  let buf = Buffer.create (32 + (12 * Digraph.n g) + (4 * Digraph.m g)) in
  add_any_blob buf ?labels ~format g;
  Buffer.contents buf

let whole_graph c =
  let build = read_graph_blob c in
  expect_end c;
  build ()

let of_binary_string s = whole_graph (cursor s)

let save_binary ?labels ?format path g =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_snapshot_string ?labels ?format g))

(* The kind byte of a snapshot at the start of [ic]; [None] for any
   other file. *)
let sniff ic =
  let head = really_input_string ic (Mono.imin (in_channel_length ic) 5) in
  if String.length head = 5 && String.starts_with ~prefix:magic head then
    Some head.[4]
  else None

let snapshot_kind path = In_channel.with_open_bin path sniff

let load_file ?(mmap = false) ?text path binary =
  In_channel.with_open_bin path (fun ic ->
      let kind = sniff ic in
      seek_in ic 0;
      match (kind, text) with
      | None, Some text -> text (In_channel.input_all ic)
      | _ when mmap ->
          binary
            { s = ""; off = 0; pos = 0; len = in_channel_length ic; file = Some ic }
      | _ -> binary (cursor (In_channel.input_all ic)))

let load ?mmap path = load_file ?mmap ~text:of_string path whole_graph

let to_dot ?labels ?(name = "g") ?cluster g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=circle fontsize=10];\n";
  let label_name l =
    match labels with
    | Some t -> (try Label_table.name t l with Not_found -> Printf.sprintf "l%d" l)
    | None -> Printf.sprintf "l%d" l
  in
  let emit_node v indent =
    Buffer.add_string buf
      (Printf.sprintf "%sn%d [label=\"%d:%s\"];\n" indent v v
         (label_name (Digraph.label g v)))
  in
  (match cluster with
  | None -> for v = 0 to Digraph.n g - 1 do emit_node v "  " done
  | Some c ->
      if Array.length c <> Digraph.n g then
        invalid_arg "Graph_io.to_dot: cluster array length mismatch";
      let groups = Mono.Itbl.create 16 in
      Array.iteri
        (fun v k ->
          Mono.Itbl.replace groups k
            (v :: Option.value (Mono.Itbl.find_opt groups k) ~default:[]))
        c;
      Mono.Itbl.iter
        (fun k members ->
          Buffer.add_string buf
            (Printf.sprintf "  subgraph cluster_%d {\n    label=\"%d\";\n" k k);
          List.iter (fun v -> emit_node v "    ") members;
          Buffer.add_string buf "  }\n")
        groups);
  Digraph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let save ?labels path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ?labels g))
