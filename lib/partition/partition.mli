(** Refinable partitions of the integer universe [0 .. n-1].

    The classic mark-and-split structure backing partition refinement
    (Paige–Tarjan, bisimulation, k-bisimulation): nodes live in a permutation
    array grouped by block; marking swaps a node to the marked prefix of its
    block; splitting turns each marked prefix into a fresh block in O(marked).

    Blocks are dense ids [0 .. block_count-1].  Splitting never renames the
    unmarked remainder: the marked part receives the new id.

    All per-block storage is preallocated at creation (a universe of [n]
    nodes never holds more than [n] blocks), so {!mark} and {!split_marked}
    allocate nothing.  The permutation layout is exposed read-only through
    {!element_at} so clients (e.g. {!Paige_tarjan}) can maintain contiguous
    super-block ranges over it. *)

type t

(** [create n] is the single-block partition of [0 .. n-1] (block 0).
    [n = 0] yields an empty partition with one empty block. *)
val create : int -> t

(** [create_with keys] groups positions by key: nodes with equal [keys.(v)]
    start in the same block.  Block ids are assigned in order of first
    appearance of each key. *)
val create_with : int array -> t

(** [universe_size p] is [n]. *)
val universe_size : t -> int

(** [block_count p] is the current number of blocks. *)
val block_count : t -> int

(** [block_of p v] is the block currently containing [v]. *)
val block_of : t -> int -> int

(** [block_size p b] is the number of members of block [b]. *)
val block_size : t -> int -> int

(** [element_at p i] is the node at position [i] of the element permutation,
    [0 <= i < universe_size p].  Unchecked: out-of-range indices are a
    programming error. *)
val element_at : t -> int -> int

(** [iter_block p b f] applies [f] to each member of [b] (unspecified
    order). *)
val iter_block : t -> int -> (int -> unit) -> unit

(** [members p b] lists the members of [b] in ascending order. *)
val members : t -> int -> int list

(** [mark p v] marks [v] for the next {!split_marked}.  Marking twice is a
    no-op. *)
val mark : t -> int -> unit

(** [marked_size p b] is the number of currently marked members of [b]. *)
val marked_size : t -> int -> int

(** [split_marked p f] splits every block containing both marked and
    unmarked nodes: the marked members move to a fresh block [nb] and
    [f ~old_block ~new_block] is called once per such split.  Fully marked
    blocks are left intact.  All marks are cleared. *)
val split_marked : t -> (old_block:int -> new_block:int -> unit) -> unit

(** [rotate_adjacent p ~front ~back] exchanges the positions of two adjacent
    blocks in the element permutation: [back]'s range must immediately
    follow [front]'s, [block_size p back <= block_size p front], and neither
    block may have pending marks.  Afterwards [back] occupies the leading
    positions.  O(size of [back]) — callers splitting super-block ranges use
    this to detach the smaller of two leading blocks at smaller-half cost.
    @raise Invalid_argument if a precondition fails. *)
val rotate_adjacent : t -> front:int -> back:int -> unit

(** [assignment p] is the block id per node (a fresh array). *)
val assignment : t -> int array

(** [normalize_assignment a] renumbers an arbitrary block-id array to dense
    ids in order of first appearance, so partitions compare structurally. *)
val normalize_assignment : int array -> int array

(** [equivalent a b] whether two assignments induce the same partition. *)
val equivalent : int array -> int array -> bool
