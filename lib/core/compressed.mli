(** Compressed graphs [Gr = R(G)] with the node-mapping index.

    Both compression schemes (Sec 3 and Sec 4) produce a graph over
    hypernodes plus the mapping [R : V → Vr] and its inverse — the index the
    query rewriting function [F] and the post-processing function [P] use.
    The paper's promise is that [Gr] is an ordinary graph: every evaluator in
    [qpgc_query] runs on {!graph} unchanged. *)

type t = private {
  graph : Digraph.t;  (** the compressed graph [Gr] *)
  node_map : int array;  (** [R]: original node → hypernode *)
  members : int array array;  (** inverse of [R]: hypernode → sorted originals *)
}

(** [v ~graph ~node_map] packs a compressed graph, deriving the inverse
    index.  @raise Invalid_argument if [node_map] mentions a hypernode
    outside [graph] or some hypernode has no member. *)
val v : graph:Digraph.t -> node_map:int array -> t

val graph : t -> Digraph.t

(** [hypernode t u] is [R(u)], constant time. *)
val hypernode : t -> int -> int

(** [members t h] is the sorted list of original nodes in hypernode [h]. *)
val members : t -> int -> int array

(** [original_n t] is [|V|] of the original graph. *)
val original_n : t -> int

(** [size t] is [|Gr| = |Vr| + |Er|]. *)
val size : t -> int

(** [ratio t ~original] is the paper's compression ratio [|Gr| / |G|]. *)
val ratio : t -> original:Digraph.t -> float

(** [expand_nodes t hs] is the sorted union of the members of the
    hypernodes [hs]: one bitset over [V] is marked and read back in
    order, O(|V|/63 + |output|). *)
val expand_nodes : t -> int array -> int array

(** [expand_result t result] is the post-processing function [P] for pattern
    answers: {!expand_nodes} on every row, through one bitset over [V]
    reused across rows.  Each row costs O(|V|/63 + |output|); [None] stays
    [None]. *)
val expand_result : t -> Pattern.result -> Pattern.result

val pp : Format.formatter -> t -> unit
