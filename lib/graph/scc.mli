(** Strongly connected components and the condensation ("SCC graph" [Gscc],
    paper Sec 3.2 and 5.1).

    The condensation collapses each SCC into a single node without losing
    reachability information; [compressR] runs on it, and the topological
    ranks of Sec 5 are defined over it. *)

type t = {
  count : int;  (** number of SCCs *)
  comp : int array;  (** [comp.(v)] is the SCC id of node [v] *)
  members : int array array;
      (** [members.(c)] lists the nodes of SCC [c], ascending *)
  nontrivial : bool array;
      (** [nontrivial.(c)] iff SCC [c] contains a cycle: more than one node,
          or a single node with a self-loop.  Exactly the SCCs whose members
          reach themselves by a nonempty path. *)
}

(** [compute g] finds all SCCs with Tarjan's algorithm (iterative, so deep
    graphs do not blow the OCaml stack).  SCC ids are in reverse topological
    order of the condensation: if SCC [a] reaches SCC [b] (a ≠ b) then
    [a > b]. *)
val compute : Digraph.t -> t

(** [condensation g scc] is the SCC graph [Gscc]: one node per SCC, an edge
    [(a, b)] iff some member edge crosses from SCC [a] to SCC [b] with
    [a ≠ b] (no self-loops, per the paper's definition).  Labels of the
    condensation are all 0: reachability ignores labels.  It is
    {!Digraph.quotient} by [scc.comp] without self-loops, so its rows are
    sorted and deduplicated; O(|V| + |E|). *)
val condensation : Digraph.t -> t -> Digraph.t

(** [same_scc scc u v] is [true] iff [u] and [v] are in one SCC. *)
val same_scc : t -> int -> int -> bool
