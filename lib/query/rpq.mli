(** Regular path queries over node labels — the extension the paper lists
    as future work (Sec 7: "pattern queries with embedded regular
    expressions").

    A query is a regular expression over node labels.  A path
    [v0 → v1 → … → vk] (k ≥ 0) {e spells} the word [L(v0) L(v1) … L(vk)];
    node [u] {e satisfies} the query iff some path starting at [u] spells a
    word in the language.

    The per-node outgoing path language is invariant under bisimulation, so
    the graph pattern preserving compression of Sec 4 preserves these
    queries exactly: evaluate on [Gr] as is, expand matched hypernodes
    ({!Compress_bisim} exposes this as [answer_rpq]).  Note the contrast
    with {e pair} queries "is there a w-path from u to this specific v?",
    which bisimulation does not preserve (the same asymmetry the paper
    proves for reachability on index graphs, Sec 3.1).

    Evaluation compiles the expression to a Thompson NFA and runs a
    product-graph BFS: O(|Q|·(|V| + |E|)) for an NFA with |Q| states. *)

type t =
  | Label of int  (** a node carrying this label *)
  | Any  (** any single node *)
  | Seq of t * t  (** concatenation: a path through both in order *)
  | Alt of t * t  (** alternation *)
  | Star of t  (** zero or more repetitions *)
  | Plus of t  (** one or more repetitions *)
  | Opt of t  (** zero or one *)

(** [matches r g] is the set of nodes with an outgoing path spelling a word
    in [L(r)].  The empty word never matches (every path spells at least
    its start node's label). *)
val matches : t -> Digraph.t -> Bitset.t

(** [satisfies r g u] is [Bitset.mem (matches r g) u] computed for one
    source without materialising the full answer. *)
val satisfies : t -> Digraph.t -> int -> bool

(** [pairs r g ~source] is the set of nodes [v] such that some path from
    [source] to [v] spells a word in [L(r)].  Exposed for completeness and
    the test suite; {e not} preserved by compression (see above). *)
val pairs : t -> Digraph.t -> source:int -> Bitset.t

(** [pp] prints in a conventional syntax: [l3], [.], [ab], [a|b], [a*],
    [a+], [a?]. *)
val pp : Format.formatter -> t -> unit

(** [parse s] reads the {!pp} syntax: label atoms are [l<int>], [.] is any,
    juxtaposition concatenates, [|] alternates, postfix [*]/[+]/[?] repeat,
    parentheses group.  @raise Invalid_argument on syntax errors. *)
val parse : string -> t
