(** Text and binary serialisation of labeled graphs, and the one codec
    of every QPGC binary snapshot (see {!section:container}).

    Text format (one record per line, ['#'] starts a comment):
    {v
    n <node-count>
    l <node-id> <label-name>     # optional; default label is "_"
    e <src> <dst>
    v}
    Nodes are implicitly [0 .. n-1].  String label names are interned into the
    dense integer labels used by {!Digraph} via {!Label_table}. *)

(** Bidirectional mapping between string label names and dense label ids. *)
module Label_table : sig
  type t

  val create : unit -> t

  (** [intern t name] returns the id of [name], allocating one if new. *)
  val intern : t -> string -> int

  (** [name t id] is the interned string for [id].
      @raise Not_found on an unknown id. *)
  val name : t -> int -> string

  val count : t -> int
end

(** Raised by every parser of this module, {!Compressed_io} and
    [Reach_index_io], text and binary, with a 1-based line number (0 for
    binary input) and a message. *)
exception Parse_error of int * string

(** [fail line fmt] raises {!Parse_error} with [line] and the formatted
    message. *)
val fail : int -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [of_string s] parses the format above, returning the graph and the label
    table.  @raise Parse_error on malformed input. *)
val of_string : string -> Digraph.t * Label_table.t

(** [to_string ?labels g] prints the format above.  When [labels] is given,
    label names come from it; otherwise labels print as [l<id>]. *)
val to_string : ?labels:Label_table.t -> Digraph.t -> string

(** {1 Binary snapshots}

    Versioned binary forms of the same data, magic ["QPGC"] + a kind byte:

    - ['G'] (flat): the canonical out-CSR (int64 offsets, int32 adjacency,
      int32 labels) and the label-name table.  Loading is three blob reads
      plus an O(n + m) in-mirror rebuild.
    - ['M'] (mapped): both mirrors as 8-byte-aligned int64 sections, built
      for zero-copy mmap — opening is O(1) in the graph size.
    - ['V'] (varint): gap + LEB128 delta-encoded adjacency with per-node
      byte-offset indexes — the compact form, 2-4× smaller than 'G'.

    See DESIGN.md "Storage layer" for the byte layouts and alignment
    rules.  All parsers reject truncated or corrupt input with
    {!Parse_error}, never undefined behaviour. *)

(** [to_binary_string ?labels g] serialises [g] (and, when given, its
    label names) into the 'G' binary snapshot format. *)
val to_binary_string : ?labels:Label_table.t -> Digraph.t -> string

(** [to_snapshot_string ?labels ?format g] serialises [g] in the snapshot
    kind matching [format] (['G'] for [Flat], the default; ['M'] for
    [Mapped]; ['V'] for [Varint]).  Serialisation is canonical per kind:
    loading any accepted snapshot and re-serialising it in the same format
    is bit-identical, whatever backend the graph value uses in memory. *)
val to_snapshot_string :
  ?labels:Label_table.t -> ?format:Digraph.backend -> Digraph.t -> string

(** [of_binary_string s] parses a binary snapshot of any graph kind.  The
    loaded structure is re-validated, so corrupt, truncated or
    non-canonical input (trailing bytes included) fails with
    {!Parse_error} (line 0) rather than undefined behaviour. *)
val of_binary_string : string -> Digraph.t * Label_table.t

(** [save_binary ?labels ?format path g] writes the binary snapshot of
    [g]; [format] as in {!to_snapshot_string}. *)
val save_binary :
  ?labels:Label_table.t -> ?format:Digraph.backend -> string -> Digraph.t -> unit

(** [load ?mmap path] reads a graph file in any format: binary snapshots
    are detected by their magic and kind byte, anything else parses as
    text.  With [~mmap:true], an 'M' snapshot opens zero-copy on the
    mapped backend in O(1) (other formats still load eagerly). *)
val load : ?mmap:bool -> string -> Digraph.t * Label_table.t

(** {1:container The snapshot container}

    Every QPGC snapshot — the graph kinds above, {!Compressed_io}'s ['C']
    and [Reach_index_io]'s ['I'] — shares one codec, kept here: an 8-byte
    header (magic ["QPGC"], kind byte, version byte, two reserved zero
    bytes), little-endian fields read through one bounds-checked
    {!cursor}, graphs nested as blobs of any graph kind, and
    {!Parse_error} (line 0) for every malformed input. *)

(** [add_header buf kind version] appends the 8-byte header. *)
val add_header : Buffer.t -> char -> int -> unit

(** [add_any_blob buf ?labels ~format g] appends the snapshot kind
    matching [format].  An 'M' blob is preceded by zero padding up to the
    next multiple of 8 of [Buffer.length buf], so its int64 sections land
    8-byte aligned when the buffer is written at file offset 0;
    {!graph_blob} skips the same padding. *)
val add_any_blob :
  Buffer.t -> ?labels:Label_table.t -> format:Digraph.backend -> Digraph.t -> unit

(** A forward reader over a snapshot, from a string or, on an mmap load,
    from a file read on demand.  Every read checks the bytes are there
    first; the [what] argument names the field in the
    ["binary snapshot truncated reading ..."] error. *)
type cursor

(** [cursor s] reads [s] from offset 0. *)
val cursor : string -> cursor

(** [read_header c kind ~versions:(lo, hi)] reads the 8-byte header and
    checks the magic, that the kind byte is [kind], that the version
    byte lies in [lo..hi] and that the reserved bytes are zero. *)
val read_header : cursor -> char -> versions:int * int -> unit

(** One unsigned byte. *)
val u8 : cursor -> string -> int

(** A non-negative int32. *)
val i32 : cursor -> string -> int

(** A non-negative int64 within the OCaml int range. *)
val i64 : cursor -> string -> int

(** [i32_array c count what] reads [count] int32 entries (any sign). *)
val i32_array : cursor -> int -> string -> int array

(** Bytes left in the input. *)
val remaining : cursor -> int

(** [expect_end c] fails with {!Parse_error} unless [c] has read its
    whole input.  Every top-level snapshot reader calls it after its last
    read, so no snapshot has trailing bytes. *)
val expect_end : cursor -> unit

(** [graph_blob c] reads a nested graph blob of any kind ('G', 'M' or
    'V'), skipping the zero padding {!add_any_blob} writes before an 'M'
    blob.  On a cursor of an mmap load an 8-aligned 'M' blob maps in
    place: only its fixed header and label-name table are read, its
    sections become views over the file pages. *)
val graph_blob : cursor -> Digraph.t * Label_table.t

(** [snapshot_kind path] is [Some k] when [path] starts with the snapshot
    magic followed by kind byte [k], [None] for any other file. *)
val snapshot_kind : string -> char option

(** [load_file ?mmap ?text path binary] reads [path] with one open: a
    snapshot goes to [binary] with a cursor at offset 0, any other file
    to [text] as one string (without [text], to [binary] too, whose
    header check then rejects it).  Without [mmap] the cursor reads the
    whole file as one string; with [~mmap:true] it reads the file on
    demand and {!graph_blob} maps 'M' blobs in place. *)
val load_file :
  ?mmap:bool -> ?text:(string -> 'a) -> string -> (cursor -> 'a) -> 'a

(** [save ?labels path g] writes [g] to [path] in the text format. *)
val save : ?labels:Label_table.t -> string -> Digraph.t -> unit

(** [to_dot ?labels ?name ?cluster g] renders Graphviz DOT.  Nodes show
    their id and label; when [cluster] is given, nodes are grouped into
    subgraph clusters by [cluster.(v)] (e.g. hypernode or fragment id) —
    the natural way to look at a compression or a fragmentation. *)
val to_dot :
  ?labels:Label_table.t -> ?name:string -> ?cluster:int array -> Digraph.t -> string
