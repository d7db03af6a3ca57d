(** Serialisation of compressed graphs with their node-map index: compress
    once, ship [Gr] + [R], query anywhere.

    Format, extending the {!Graph_io} records:
    {v
    n <hypernode-count>
    l <hypernode> <label-id>       # omitted when 0
    e <src> <dst>
    o <original-node-count>
    m <original-node> <hypernode>  # the map R, one line per node
    v}

    Every parser here fails with {!Graph_io.Parse_error}. *)

val to_string : Compressed.t -> string

(** @raise Graph_io.Parse_error on malformed input (including maps that
    do not cover every original node or point at unknown hypernodes). *)
val of_string : string -> Compressed.t

(** {1 Binary snapshots}

    The {!Graph_io} snapshot header with kind ['C'], then [Gr] as a nested
    {!Graph_io} graph blob of any kind ('G' flat, 'M' mapped or 'V'
    varint — pick with [graph_format]), the original node count, and the
    node map [R] as int32 entries.  The blob sits at offset 8, which is
    8-byte aligned, so an 'M' blob can be mapped zero-copy straight out
    of the snapshot file.  The inverse index is rederived on load. *)

val to_binary_string : ?graph_format:Digraph.backend -> Compressed.t -> string

(** @raise Graph_io.Parse_error on a corrupt or truncated snapshot, or
    one with trailing bytes. *)
val of_binary_string : string -> Compressed.t

val save_binary : ?graph_format:Digraph.backend -> string -> Compressed.t -> unit

(** [save path c] writes the text format. *)
val save : string -> Compressed.t -> unit

(** [load ?mmap path] reads either format, sniffing the binary magic.
    With [~mmap:true] and a snapshot whose embedded blob is kind 'M',
    [Gr]'s sections open as zero-copy mapped views ({!Graph_io.graph_blob})
    and only the headers, label names and node map are read eagerly. *)
val load : ?mmap:bool -> string -> Compressed.t
