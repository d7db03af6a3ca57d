(** Reachability queries [QR(v, w)] (paper Sec 2.1) and their stock
    evaluation algorithms.

    A reachability query asks whether [v] can reach [w].  Following the
    standard convention the paper's experiments use, [QR(v, v)] is [true];
    queries between {e distinct} nodes need an actual path.  The compressed
    form additionally distinguishes distinct equivalent nodes mapped to the
    same hypernode, which {!Compress_reach} resolves with the hypernode's
    self-loop — still by running one of these evaluators on [Gr]. *)

type algorithm =
  | Bfs  (** forward breadth-first search *)
  | Bibfs  (** bidirectional BFS *)
  | Dfs  (** iterative depth-first search *)

val all_algorithms : algorithm list

val algorithm_name : algorithm -> string

(** [eval algo g ~source ~target] answers [QR(source, target)] on [g]. *)
val eval : algorithm -> Digraph.t -> source:int -> target:int -> bool

(** [eval_nonempty algo g ~source ~target] requires a nonempty path; it
    differs from {!eval} only when [source = target]. *)
val eval_nonempty : algorithm -> Digraph.t -> source:int -> target:int -> bool

(** [eval_batch algo g pairs] answers [QR(u, v)] for every [(u, v)] of
    [pairs], preserving order.  Each query allocates its own traversal
    state, so a multi-domain [?pool] (default {!Pool.default}) evaluates
    the batch concurrently with answers identical to the sequential run. *)
val eval_batch :
  ?pool:Pool.t -> algorithm -> Digraph.t -> (int * int) array -> bool array

(** {1 Flat batches}

    The serving engines answer a batch through one flat entry point over
    two id columns.  Query [i] of the slice [off .. off+len-1] is
    [(src.(i), dst.(i))]; its answer goes to byte [i] of the output,
    ['\001'] when the target is reachable and ['\000'] otherwise — the
    body of a protocol answer frame. *)
type flat_eval =
  src:int array -> dst:int array -> off:int -> len:int -> Bytes.t -> unit

(** [check_slice who ~src ~dst ~off ~len out] is the entry check of a
    {!flat_eval}.  @raise Invalid_argument, naming [who], when the slice
    leaves a column or the output. *)
val check_slice :
  string ->
  src:int array ->
  dst:int array ->
  off:int ->
  len:int ->
  Bytes.t ->
  unit

(** [eval_pairs eval_into pairs] answers a tuple batch through a flat
    entry point, in order. *)
val eval_pairs : flat_eval -> (int * int) array -> bool array

(** [random_pairs rng g ~count] draws query node pairs uniformly (the Exp-2
    workload).  @raise Invalid_argument on an empty graph with [count > 0]. *)
val random_pairs : Random.State.t -> Digraph.t -> count:int -> (int * int) array
