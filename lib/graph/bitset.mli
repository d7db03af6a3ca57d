(** Dense fixed-capacity bitsets over the integer universe [0, capacity).

    Used throughout the library for ancestor/descendant sets, candidate sets
    of pattern matching, and visited sets of traversals.  The representation
    is a flat [int array] with 63 usable bits per word, so set operations on
    graph-sized universes cost [capacity/63] word operations.

    The row kernels of the pattern path ({!add_slice}, {!union_rows},
    {!keep_meeting}, {!write_u32_le}, {!weight}, {!write_selected}) and
    {!cardinal} are C over the same words: each jumps from member to
    member with a count-trailing-zeros instruction, counts them, or
    tests one bit per scanned entry, with no callback and no
    allocation.  Each checks its arguments before
    it reads or writes through them, and a rejected call writes nothing
    past the point of rejection. *)

type t

(** [create capacity] is the empty set over universe [0, capacity).
    @raise Invalid_argument if [capacity < 0]. *)
val create : int -> t

(** [universe_size s] is the capacity [s] was created with. *)
val universe_size : t -> int

(** [add s i] sets bit [i].  @raise Invalid_argument if [i] is out of range. *)
val add : t -> int -> unit

(** [add_slice s a start len] adds [a.(start) .. a.(start + len - 1)]:
    {!add} over an array slice.  A [len <= 0] adds nothing.
    @raise Invalid_argument if the slice leaves [a], before anything is
    added, or if an element is out of range, after the elements before it
    are added. *)
val add_slice : t -> int array -> int -> int -> unit

(** [add_range s lo hi] adds [lo .. hi - 1], whole words at a time.  A
    [hi <= lo] adds nothing.
    @raise Invalid_argument if [lo < 0] or [hi > universe_size s] for a
    non-empty range, before anything is added. *)
val add_range : t -> int -> int -> unit

(** [remove s i] clears bit [i]. *)
val remove : t -> int -> unit

(** [mem s i] is [true] iff bit [i] is set. *)
val mem : t -> int -> bool

(** [cardinal s] is the number of set bits: a popcount over all words,
    in C, allocating nothing. *)
val cardinal : t -> int

(** [is_empty s] is [true] iff no bit is set. *)
val is_empty : t -> bool

(** [clear s] resets every bit to 0 in place. *)
val clear : t -> unit

(** [copy s] is a fresh bitset with the same contents. *)
val copy : t -> t

(** [equal a b] is set equality, O(1) when [a] and [b] are the same set.
    The two sets must share a universe size. *)
val equal : t -> t -> bool

(** [union_into ~into src] computes [into := into ∪ src] in place and returns
    [true] iff [into] changed.  The change report lets fixpoint loops detect
    stabilisation without a separate comparison pass. *)
val union_into : into:t -> t -> bool

(** [inter_into ~into src] computes [into := into ∩ src] in place and
    returns [true] iff [into] changed, as {!union_into} does. *)
val inter_into : into:t -> t -> bool

(** [diff_into ~into src] computes [into := into \ src] in place. *)
val diff_into : into:t -> t -> unit

(** [inter_cardinal a b] is [|a ∩ b|] without allocating the intersection. *)
val inter_cardinal : t -> t -> int

(** [disjoint a b] is [true] iff [a ∩ b = ∅]. *)
val disjoint : t -> t -> bool

(** [subset a b] is [true] iff [a ⊆ b]. *)
val subset : t -> t -> bool

(** [iter f s] applies [f] to each member in increasing order.  [f] may
    remove the member it is given from [s]. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s init] folds over members in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [to_list s] is the members in increasing order. *)
val to_list : t -> int list

(** [to_array s] is the members in increasing order, in an array of
    exactly [cardinal s] cells: O(capacity/63 + cardinal) with no
    intermediate list. *)
val to_array : t -> int array

(** [iter_with f env s] is [iter (f env) s]: with a toplevel [f], the
    walk allocates nothing, which keeps the per-member loops of hot
    kernels free of closures.  [f] may remove the member it is given
    from [s]. *)
val iter_with : ('a -> int -> unit) -> 'a -> t -> unit

(** [union_rows ~into ~off ~ids sel] adds to [into], for each member [h]
    of [sel] in increasing order, the CSR row [ids.(off.(h)) ..
    ids.(off.(h + 1) - 1)]: the union of the rows [sel] selects, in one
    walk over the words of [sel].  A row with [off.(h) >= off.(h + 1)]
    is empty.
    @raise Invalid_argument if [off] has fewer than [universe_size sel
    + 1] entries, before anything is added; or if a non-empty row leaves
    [ids] or holds an id outside [into]'s universe, after the rows before
    it, and the ids of its own row before that id, are added. *)
val union_rows : into:t -> off:int array -> ids:int array -> t -> unit

(** [keep_meeting s ~off ~adj t] removes from [s] every member [v] whose
    CSR row [adj.{off.{v}} .. adj.{off.{v + 1} - 1}] has no member of
    [t], and is [true] iff it removed one.  One walk over the words of
    [s] in increasing order; a row is scanned up to its first member of
    [t].  The lowest and highest members of [t] are read once per call,
    and an id outside them is judged without a load of [t]'s words, so a
    [t] that spans a narrow id range costs little per id; rows need not
    be sorted.  [t] may be [s] itself, in which case a member removed
    earlier in the walk no longer counts.  [off] and [adj] are the
    Bigarrays of a {!Digraph} CSR store, on the heap or over a mapped
    file that may be corrupt, so every row and every id is checked.
    @raise Invalid_argument if [off] has fewer than [universe_size s + 1]
    entries, before anything is removed; or if a non-empty row leaves
    [adj] or, before its first hit, holds an id outside [t]'s universe,
    after the members before it are judged. *)
val keep_meeting :
  t ->
  off:(int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  adj:(int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  t ->
  bool

(** [write_u32_le s b pos] writes the members in increasing order as
    u32 little-endian values into [b] from [pos], [4 * cardinal s] bytes,
    and returns the position after them.  Allocates nothing.  A member
    is written as its low 32 bits.
    @raise Invalid_argument if [pos < 0] or the bytes do not fit in [b];
    nothing is written then. *)
val write_u32_le : t -> Bytes.t -> int -> int

(** [weight s ~off] is the total length of the CSR rows [s] selects,
    the sum of [off.(h + 1) - off.(h)] over the members [h] of [s]: one
    walk over the words of [s], allocating nothing.
    @raise Invalid_argument if [off] has fewer than [universe_size s + 1]
    entries. *)
val weight : t -> off:int array -> int

(** [write_selected sel ~pairs ~lo ~hi ~count b pos] writes, as u32
    little-endian values into [b] from [pos], the ids of the entries
    [lo <= j < hi] of [pairs] whose key is a member of [sel], in entry
    order, and returns the position after them.  Entry [j] is the 8
    bytes from [8j]: the id, then its key, each a u32 little-endian.
    [count] is how many there are: the scan stores every id and moves
    on 4 bytes only past a selected one, with no branch on the member
    test, and stops at the [count]-th, so nothing is written past
    [pos + 4 * count].  An id must be below the number of entries (the
    entries hold a permutation of that universe, each id with its key).
    Allocates nothing.
    @raise Invalid_argument if the [count] ids do not fit in [b], before
    anything is written; if [lo, hi) leaves the entries or a scanned
    entry holds an id or a key outside its universe; or if fewer than
    [count] entries are selected. *)
val write_selected :
  t -> pairs:Bytes.t -> lo:int -> hi:int -> count:int -> Bytes.t -> int -> int

(** [of_list capacity xs] is the set containing exactly [xs]. *)
val of_list : int -> int list -> t

(** [choose s] is the smallest member, or [None] if empty. *)
val choose : t -> int option

(** [hash s] is a content hash, suitable for hash tables keyed by set value.
    Equal sets hash equally. *)
val hash : t -> int
