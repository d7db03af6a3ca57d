(** Binary snapshots of reachability indexes.

    The {!Graph_io} snapshot header with kind ['I'], then

    {v
    u8   algorithm tag            0 = tree-cover, 1 = two-hop, 2 = grail
    u8   node-map flag            1 when the index answers through R
    i64  indexed node count       |Vr| (or |V| for identity indexes)
    [i64 original node count, i32 map entries ...]     when flagged
    i64  self-loop count, i32 ids (strictly ascending)
    ...  algorithm payload
    v}

    Payloads: tree-cover stores the condensation size, component map,
    post ranks and per-node interval runs; two-hop stores the two
    per-node sorted label arrays; GRAIL stores the component map, the
    condensation as an embedded {!Graph_io} snapshot blob of any kind
    ('G' flat, 'M' mapped or 'V' varint — pick with [graph_format]) and
    the per-traversal interval tables.  An 'M' cond blob is preceded by
    zero padding to an 8-byte file offset so it can be mapped in place
    ({!Graph_io.graph_blob}).
    Everything is little-endian, counts before payloads — so equal
    indexes serialize to equal bytes and a snapshot round-trips
    canonically per format. *)

val to_binary_string : ?graph_format:Digraph.backend -> Reach_index.t -> string

(** [of_binary_string s] parses a kind-['I'] snapshot.  Structural
    invariants are re-validated through {!Reach_index.v} and the backend
    [of_parts] constructors, so corrupt input fails with
    {!Graph_io.Parse_error} rather than undefined query behaviour:
    truncation, trailing bytes, out-of-range ids and inconsistent sizes
    are all rejected. *)
val of_binary_string : string -> Reach_index.t

(** [save ?graph_format path t] writes the snapshot of [t] to [path];
    [graph_format] picks the embedded cond blob kind for GRAIL indexes
    (other backends embed no graph and ignore it). *)
val save : ?graph_format:Digraph.backend -> string -> Reach_index.t -> unit

(** [load ?mmap path] reads a snapshot written by {!save}.  With
    [~mmap:true], a GRAIL index whose cond blob is kind 'M' opens the
    condensation as zero-copy mapped views over [path] instead of
    parsing it eagerly.
    @raise Graph_io.Parse_error on malformed input. *)
val load : ?mmap:bool -> string -> Reach_index.t
