(** The reachability equivalence relation [Re] (paper Sec 3.1).

    [(u,v) ∈ Re] iff for every node [x]: [x] reaches [u] ⟺ [x] reaches [v],
    and [u] reaches [x] ⟺ [v] reaches [x] — where "reaches" means {e by a
    nonempty path}.  Equivalently, [u] and [v] have the same ancestor set and
    the same descendant set.  [Re] is the unique maximum such relation and an
    equivalence (Lemma 3).

    Structure exploited by the implementation (each fact is also re-checked
    by the property tests):
    - all nodes of one SCC are equivalent, so a class is either exactly one
      cyclic SCC or a set of pairwise-unreachable acyclic nodes;
    - therefore [Re] can be computed on the condensation by grouping SCC
      nodes with equal (ancestor, descendant) bitset pairs — O(|V|·|E|/w)
      overall, the paper's quadratic bound with a word-parallel constant;
    - SCCs with equal sets share one bitset, so a pass allocates at most
      one set per class, one scratch set and one empty set:
      (#classes + 2)·k/63 words for k SCCs.  A trivial SCC with no neighbour in the sweep direction takes
      the shared empty set, and one whose only neighbour is cyclic takes
      that neighbour's set unchanged. *)

type t = {
  count : int;  (** number of equivalence classes *)
  class_of : int array;
      (** node → class id.  Ids are dense and numbered in order of first
          appearance when SCCs are scanned by descending SCC id. *)
  cyclic : bool array;
      (** [cyclic.(c)] iff the members of [c] lie on a cycle (the class is a
          nontrivial SCC); exactly the classes whose hypernode carries a
          self-loop in the compressed graph *)
}

(** [compute g] is the partition of [V] into [Re]-classes. *)
val compute : Digraph.t -> t

(** [equivalent t u v] whether [(u,v) ∈ Re]. *)
val equivalent : t -> int -> int -> bool
