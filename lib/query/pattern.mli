(** Graph pattern queries [Qp = (Vp, Ep, fv, fe)] (paper Sec 2.1).

    [fv] assigns each pattern node a label to match; [fe] assigns each
    pattern edge a bound: a positive integer [k] (match along a nonempty
    path of length ≤ k) or [*] (any nonempty path).  Setting every bound to
    1 yields plain graph simulation [12]. *)

type bound =
  | Bounded of int  (** nonempty path of length at most [k ≥ 1] *)
  | Unbounded  (** any nonempty path, the paper's [*] *)

type t

(** [make ~n ~labels ~edges] builds a pattern with nodes [0..n-1].
    @raise Invalid_argument on out-of-range endpoints, a bound < 1, or a
    label array of the wrong length. *)
val make : n:int -> labels:int array -> edges:(int * int * bound) list -> t

val node_count : t -> int
val edge_count : t -> int

(** [label p u] is [fv(u)]. *)
val label : t -> int -> int

(** [edges p] lists all pattern edges with their bounds. *)
val edges : t -> (int * int * bound) list

(** [out_edges p u] lists [(u', bound)] for each pattern edge [(u, u')]. *)
val out_edges : t -> int -> (int * bound) list

(** [in_edges p u'] lists [(u, bound)] for each pattern edge [(u, u')]. *)
val in_edges : t -> int -> (int * bound) list

(** [is_acyclic p] is [true] iff [p] has no cycle (a self-loop is one). *)
val is_acyclic : t -> bool

(** [topo_node p i] is the [i]th of [p]'s nodes in a topological order,
    every parent before its children, for [0 <= i < node_count p].  The
    order is computed once, by {!make}.
    @raise Invalid_argument if [p] has a cycle or [i] is out of range. *)
val topo_node : t -> int -> int

(** [all_bounds_one p] identifies plain-simulation patterns. *)
val all_bounds_one : t -> bool

(** [with_all_bounds p b] replaces every edge bound by [b]; used to compare
    simulation with bounded simulation in tests. *)
val with_all_bounds : t -> bound -> t

val pp : Format.formatter -> t -> unit

(** {1 Match results}

    The answer to [Qp] in [G] is the unique maximum match — per pattern
    node, the set of data nodes it matches — or [None] when [Qp ⋬ G]
    (some pattern node matches nothing). *)

type result = int array array option

(** [result_equal] compares answers (arrays must be sorted, which all
    evaluators in this library guarantee). *)
val result_equal : result -> result -> bool

(** [result_size r] is the number of (pattern node, data node) pairs, the
    paper's [|Qp(G)|]. *)
val result_size : result -> int
