(** Compressed graphs [Gr = R(G)] with the node-mapping index.

    Both compression schemes (Sec 3 and Sec 4) produce a graph over
    hypernodes plus the mapping [R : V → Vr] and its inverse — the index the
    query rewriting function [F] and the post-processing function [P] use.
    The paper's promise is that [Gr] is an ordinary graph: every evaluator in
    [qpgc_query] runs on {!graph} unchanged. *)

(** The inverse of [R] is one flat CSR: the members of hypernode [h] are
    [member_ids.(member_off.(h)) .. member_ids.(member_off.(h + 1) - 1)],
    in ascending order. *)
type t = private {
  graph : Digraph.t;  (** the compressed graph [Gr] *)
  node_map : int array;  (** [R]: original node → hypernode *)
  member_off : int array;  (** [|Vr| + 1] offsets into [member_ids] *)
  member_ids : int array;  (** original nodes grouped by hypernode *)
}

(** [v ~graph ~node_map] packs a compressed graph, deriving the inverse
    index.  @raise Invalid_argument if [node_map] mentions a hypernode
    outside [graph] or some hypernode has no member. *)
val v : graph:Digraph.t -> node_map:int array -> t

val graph : t -> Digraph.t

(** [hypernode t u] is [R(u)], constant time. *)
val hypernode : t -> int -> int

(** [member_slice t h] is the view [(base, start, len)] of the original
    nodes in hypernode [h]: [base.(start) .. base.(start + len - 1)], in
    ascending order.  Do not mutate [base]. *)
val member_slice : t -> int -> int array * int * int

(** [iter_members t h f] applies [f] to the members of [h] in ascending
    order. *)
val iter_members : t -> int -> (int -> unit) -> unit

(** [original_n t] is [|V|] of the original graph. *)
val original_n : t -> int

(** [size t] is [|Gr| = |Vr| + |Er|]. *)
val size : t -> int

(** [ratio t ~original] is the paper's compression ratio [|Gr| / |G|]. *)
val ratio : t -> original:Digraph.t -> float

(** {1 The post-processing function [P]} *)

(** [expand_into t hyper mark] adds to [mark], a bitset over [V], the
    members of every hypernode in [hyper], a bitset over [Vr]: P for one
    row, read back in ascending order from [mark].  Hypernodes are
    disjoint, so [Bitset.cardinal mark] is the row's length when [mark]
    starts empty.  O(|Vr|/63 + |output|), allocating nothing. *)
val expand_into : t -> Bitset.t -> Bitset.t -> unit

(** [expand_nodes t hs] is the sorted union of the members of the
    hypernodes [hs]: one bitset over [V] is marked and read back in
    order, O(|V|/63 + |output|). *)
val expand_nodes : t -> int array -> int array

(** [expand_result t result] is the post-processing function [P] for pattern
    answers: {!expand_nodes} on every row, through one bitset over [V]
    reused across rows.  Each row costs O(|V|/63 + |output|); [None] stays
    [None]. *)
val expand_result : t -> Pattern.result -> Pattern.result
