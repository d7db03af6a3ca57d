(** Labeled directed graphs [G = (V, E, L)] (paper Sec 2.1).

    Nodes are dense integers [0 .. n-1]; each node carries an integer label
    drawn from [0 .. label_count-1] (string label names are handled by
    {!Graph_io.Label_table} at the I/O boundary, so the core algorithms stay
    allocation-free).  The structure is immutable once built.

    Storage is one compressed-sparse-row layout — per-node successor
    slices, strictly sorted and deduplicated, mirrored for predecessors —
    with an optional encoding on top:

    - {b CSR store}: [int] Bigarrays, one shared adjacency array indexed
      by an [n+1]-entry offset array per direction, plus the labels.  A
      graph built in memory ({!make} and every builder) allocates them
      off the OCaml heap: the {b flat} backend.  An mmap load of an 'M'
      snapshot maps the same arrays over the file's pages, zero-copy and
      O(1) to open regardless of graph size: the {b mmap} backend.  Both
      are read by the same code.
    - {b varint}: gap + LEB128 delta-encoded adjacency — a per-node int32
      byte-offset index into one byte stream per direction.  3–5× smaller
      than flat on sparse graphs; slices decode into a per-domain scratch
      buffer.

    Adjacency is exposed as allocation-free iteration/folds and slice
    views — never as freshly materialised per-node arrays.  Algorithms
    that index the CSR by absolute edge position use {!out_csr}/{!in_csr},
    the store's own arrays; only on the varint backend do they
    materialise a copy (lint rule CSR02 keeps that set explicit). *)

type t

(** The arrays of the CSR store, and of the varint index and labels. *)
type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type int32_ba =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** {1 Construction} *)

(** [make ~n ~labels edges] builds a graph with [n] nodes, the given labels
    (defaulting to all-0 when [labels] is omitted) and the given directed
    edges.  Duplicate edges are collapsed; self-loops are kept.
    @raise Invalid_argument on an out-of-range endpoint or label array of the
    wrong length. *)
val make : n:int -> ?labels:int array -> (int * int) list -> t

(** [make_arrays] is {!make} for preallocated edge arrays (no list boxing);
    used by generators producing millions of edges. *)
val make_arrays : n:int -> ?labels:int array -> (int * int) array -> t

(** [empty] is the graph with no nodes and no edges. *)
val empty : t

(** [of_csr_unchecked ?mapped ?label_count ?in_csr ~n ~labels ~out_off
    ~out_adj ()] wraps an already-canonical out-CSR (offsets monotone from
    0, slices strictly sorted and deduplicated) without re-sorting: the
    one trusted constructor of a CSR-store graph, for the binary snapshot
    loaders.  [in_csr] is the stored in-mirror, derived (O(n + m)) when
    absent; [label_count] defaults to [1 + max label] (O(n)); [mapped]
    (default [false]) says the arrays are views over an mmap'd file, so
    {!backend} is [Mapped].  With [label_count] and [in_csr] given,
    construction is O(1) in the graph size.  The caller owns the canonicity proof ({!validate}
    re-checks it).  The arrays are taken over, not copied. *)
val of_csr_unchecked :
  ?mapped:bool ->
  ?label_count:int ->
  ?in_csr:int_ba * int_ba ->
  n:int ->
  labels:int_ba ->
  out_off:int_ba ->
  out_adj:int_ba ->
  unit ->
  t

(** [of_varint_unchecked] wraps varint adjacency streams as
    {!varint_rows} lays them out, without checking them.  Trusted
    constructor for the 'V' snapshot loader, which runs {!validate} — the
    one checked decoder of these streams — on the result. *)
val of_varint_unchecked :
  n:int ->
  m:int ->
  label_count:int ->
  labels:int32_ba ->
  out_idx:int32_ba ->
  out_data:string ->
  in_idx:int32_ba ->
  in_data:string ->
  t

(** {1 Backends} *)

type backend = Flat | Mapped | Varint

(** [backend g] identifies the physical storage backing [g]: [Flat] and
    [Mapped] are the same CSR store, on the heap or over a mapped file. *)
val backend : t -> backend

(** [backend_name g] is ["flat"], ["mmap"] or ["varint"]; what
    [qpgc stats] and the storage bench report. *)
val backend_name : t -> string

(** [to_flat g] is [g] with its CSR store copied onto the heap ([g]
    itself when already flat).  O(n + m). *)
val to_flat : t -> t

(** [to_varint g] re-encodes [g]'s adjacency as gap+varint streams ([g]
    itself when already varint).  O(n + m); labels move to an int32
    array. *)
val to_varint : t -> t

(** [varint_rows g] is the out- and in-adjacency of [g] as gap+varint
    streams [(idx, data)], the encoding of the varint store and the 'V'
    snapshot: per node, minimal LEB128 [degree, first, gap, ...] in
    [data], its byte offset in [idx].  A varint graph's own streams,
    O(n + m) to encode otherwise.
    @raise Invalid_argument when a stream would exceed 2 GiB. *)
val varint_rows : t -> (int32_ba * string) * (int32_ba * string)

(** {1 Accessors} *)

(** [n g] is the number of nodes [|V|]. *)
val n : t -> int

(** [m g] is the number of distinct edges [|E|]. *)
val m : t -> int

(** [size g] is [|V| + |E|], the paper's [|G|]. *)
val size : t -> int

(** [memory_bytes g] is the resident size of the storage backing [g]:
    the CSR store's arrays, each with one header word, whether they are
    heap or mapped (page-cache) memory; index + stream bytes for varint —
    plus a dense view forced on varint, the array of {!labels} once
    built, the label index once {!label_ids} has built it, and the
    filter once {!succ_labelled} has built it.  Used for
    the Fig 12(d)-style memory comparisons and the bytes-per-edge figures in
    [qpgc stats] and the storage bench. *)
val memory_bytes : t -> int

(** [label g v] is [L(v)]. *)
val label : t -> int -> int

(** [labels g] is the labels as a heap array (do not mutate),
    materialised on first use and cached.  Cold paths only; {!label}
    reads the store. *)
val labels : t -> int array

(** [label_count g] is [1 + max label] (at least 1 even for empty graphs). *)
val label_count : t -> int

(** The label index: the nodes grouped by label, in ascending order
    within each label.  Label [l]'s nodes are [label_ids g] from
    [label_first g l], [label_len g l] of them; the range is empty when
    [l < 0] or [l >= label_count g].  The index ([label_count + 1]
    offsets over [n] ids) is built on first use and cached on [g];
    {!with_labels} starts a fresh one.  None of the three allocates once
    it is built.  Do not mutate the array. *)
val label_ids : t -> int array

val label_first : t -> int -> int
val label_len : t -> int -> int

(** [succ_labelled g] is the successor-label filter: for each label
    [l < label_count g], the set of nodes with a successor labelled [l],
    a bitset over [n g].  It is built on first use, in one pass over the
    out-adjacency (never the in-mirror), and cached on [g] like the
    label index; {!reverse} and {!with_labels} start a fresh one.  The
    array is empty, and nothing is built, when the [label_count g] sets
    would take more words than the out-CSR's [n g + m g + 1].  It
    allocates nothing once built.  Do not mutate the sets.
    @raise Invalid_argument on a mapped CSR store whose out-adjacency
    has a row outside its array or an id outside [0, n g), as
    {!keep_with_succ_in} does. *)
val succ_labelled : t -> Bitset.t array

val out_degree : t -> int -> int
val in_degree : t -> int -> int

(** [mem_edge g u v] is [true] iff [(u,v) ∈ E]; O(log out_degree(u)) on
    flat/mmap, O(out_degree(u)) decode-scan on varint. *)
val mem_edge : t -> int -> int -> bool

(** {1 Adjacency views}

    The slice accessors return O(1) views [(base, start, len)]: the
    neighbours of [v] are [base.{start} .. base.{start + len - 1}],
    strictly sorted.  On the CSR store (flat and mmap) [base] is the
    graph's own adjacency array and nothing is copied, so any number of
    slices stay valid together.  On the varint backend the slice is
    decoded into a {e per-domain scratch buffer}: it stays valid only
    until the next [succ_slice] (resp. [pred_slice]) call on the same
    graph, same direction and same domain — copy it out if you need it
    longer.  Do not mutate [base], and do not read outside the slice. *)

val succ_slice : t -> int -> int_ba * int * int
val pred_slice : t -> int -> int_ba * int * int

(** [keep_with_succ_in g s t] removes from [s] every node with no
    successor in [t], and is [true] iff it removed one: the bound-1
    pruning step of pattern matching.  [t] may be [s] itself.  Reads
    the store in place on every backend; on the CSR store it is a single
    walk in C ({!Bitset.keep_meeting}) with no callback per node, and it
    allocates nothing per node on any backend. *)
val keep_with_succ_in : t -> Bitset.t -> Bitset.t -> bool

(** [out_csr g] is the [(offsets, adjacency)] arrays of the out-CSR:
    [offsets] has [n+1] entries and the successors of [v] occupy
    [adjacency.{offsets.{v}} .. adjacency.{offsets.{v+1} - 1}].  On the
    CSR store (flat and mmap) these are the store's own arrays; on the
    varint backend the first call materialises (and caches) a copy — an
    O(n + m) escape hatch for kernels that need indexed random access.
    Fetch once per kernel.  Do not mutate.  New call sites outside
    [lib/graph] trip lint rule CSR02 and need a justified
    [[@lint.allow "CSR02"]]. *)
val out_csr : t -> int_ba * int_ba

(** [in_csr g] is the in-mirror of {!out_csr}. *)
val in_csr : t -> int_ba * int_ba

val iter_succ : t -> int -> (int -> unit) -> unit
val iter_pred : t -> int -> (int -> unit) -> unit
val fold_succ : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
val fold_pred : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** [iter_edges g f] applies [f u v] to every edge in lexicographic order. *)
val iter_edges : t -> (int -> int -> unit) -> unit

(** [fold_edges g f init] folds [f] over the edges in lexicographic order. *)
val fold_edges : t -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** [edge_array g] materialises the edge list as a fresh array in
    lexicographic order — O(m) allocation, for shufflers and samplers that
    genuinely need random access to edges.  Prefer {!iter_edges} for plain
    iteration. *)
val edge_array : t -> (int * int) array

(** {1 Derived graphs} *)

(** [reverse g] flips every edge; labels are preserved.  O(1): the two
    direction records swap roles, no arrays are copied or re-encoded. *)
val reverse : t -> t

(** [with_labels g labels] is [g] with its labels replaced (a copy on
    the heap, storage backend unchanged). *)
val with_labels : t -> int array -> t

(** [add_edges g es] is [g] plus the extra edges (endpoints must exist).
    Like all edit operations, the result is on the flat backend. *)
val add_edges : t -> (int * int) list -> t

(** [remove_edges g es] is [g] minus the given edges (absent edges are
    ignored). *)
val remove_edges : t -> (int * int) list -> t

(** [edit g ~add ~remove] applies both changes with a single CSR rebuild;
    an edge in both lists ends up present. *)
val edit : t -> add:(int * int) list -> remove:(int * int) list -> t

(** [induced g nodes] is the subgraph induced by [nodes]: result node [i]
    corresponds to [nodes.(i)].  Returns the subgraph and the mapping array
    from new ids to old ids. *)
val induced : t -> int array -> t * int array

(** [quotient ?labels ~self_loops ~class_of ~k g] is the quotient of [g]
    by the class map [class_of]: nodes [0 .. k-1], one per class (a class
    no node maps to is an isolated node), and an edge [(a, b)] iff some
    edge [(u, v)] of [g] has [class_of.(u) = a] and [class_of.(v) = b].
    With [~self_loops:false] the pairs with [a = b] are dropped; with
    [true] they are kept.  Labels default to all-0, as in {!make}.  Rows
    are sorted and deduplicated by {!make}'s counting sorts, with no
    table of pairs; O(n + m + k).  The result is on the flat backend.
    This is the one builder behind compressR's and compressB's Gr and
    {!Scc.condensation}.
    @raise Invalid_argument if [class_of] does not have length [n g], a
    class lies outside [[0, k)], or [labels] does not have length [k] or
    holds a negative label; nothing is built then. *)
val quotient :
  ?labels:int array -> self_loops:bool -> class_of:int array -> k:int -> t -> t

(** {1 Comparison and printing} *)

(** [equal a b] is structural equality: same [n], labels and edge sets —
    independent of storage backend (a varint graph equals its flat
    original). *)
val equal : t -> t -> bool

(** [pp] prints a compact textual form, for debugging and expect tests. *)
val pp : Format.formatter -> t -> unit

(** [validate g] re-checks the storage invariants of whichever backend
    [g] uses: offsets/indexes start at 0, are monotone and end at [m];
    every slice is strictly sorted (hence deduplicated) and in range;
    labels lie in [0, label_count); varint streams re-decode canonically;
    the in- and out-mirrors agree edge for edge.  Used by property tests
    and the binary snapshot loaders.
    @raise Failure when an invariant is broken. *)
val validate : t -> unit
