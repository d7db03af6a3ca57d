(** The paper's general framework (Sec 2.2, Fig 3(a)) as a typed API.

    A query preserving compression for a class [Q] is a triple [<R, F, P>]:
    a compression function [R], a query rewriting function [F : Q → Q], and
    a post-processing function [P], with [Q(G) = P(Q'(Gr))] for [Q' = F(Q)]
    and [Gr = R(G)] — where [Q'] is evaluated by {e any stock algorithm for
    the class}, unchanged.

    {!Scheme} is the module type of such triples; {!Make} packages one into
    a prepared-once / query-many API and is what the preservation property
    tests quantify over.  Three instances are defined here:
    {!Reachability} (Sec 3), {!Patterns} (Sec 4) and {!Path_queries} (the
    Sec 7 extension). *)

module type SCHEME = sig
  type query
  type answer

  val name : string

  (** any stock evaluator for the class, used on both [G] and [Gr] *)
  val evaluate : Digraph.t -> query -> answer

  (** the compression function [R] *)
  val compress : Digraph.t -> Compressed.t

  (** the query rewriting function [F]; receives the node-map index *)
  val rewrite : Compressed.t -> query -> query

  (** the post-processing function [P]; receives the inverse index *)
  val post_process : Compressed.t -> answer -> answer
end

module Make (S : SCHEME) : sig
  type t

  (** [prepare g] computes [Gr = R(g)] once. *)
  val prepare : Digraph.t -> t

  (** [adopt g c] wraps an existing compression (e.g. one maintained
      incrementally). *)
  val adopt : Compressed.t -> t

  (** [query t q] is [P (evaluate Gr (F q))] — the Fig 3(a) pipeline. *)
  val query : t -> S.query -> S.answer

  (** [direct g q] is [evaluate g q]: the uncompressed reference the
      preservation tests compare against. *)
  val direct : Digraph.t -> S.query -> S.answer

  val compressed : t -> Compressed.t
end

(** Sec 3: reachability queries.  [F] maps the node pair through [R]; no
    post-processing. *)
module Reachability :
  SCHEME with type query = int * int and type answer = bool

(** Sec 4: graph pattern queries via bounded simulation.  [F] is the
    identity; [P] expands hypernodes. *)
module Patterns :
  SCHEME with type query = Pattern.t and type answer = Pattern.result

(** Sec 7 extension: regular path queries.  [F] is the identity; [P]
    expands hypernodes of the matching set. *)
module Path_queries :
  SCHEME with type query = Rpq.t and type answer = int array
