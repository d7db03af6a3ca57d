(** Graph fragmentation — the substrate for the paper's second piece of
    future work (Sec 7: "extend our compression and maintenance techniques
    to query distributed graphs"), simulated on one machine.

    A fragmentation splits [G]'s nodes over [k] fragments.  Each fragment
    owns its induced subgraph; edges crossing fragments are kept separately.
    A node is an {e out-boundary} node of its fragment if it has a cross
    edge leaving the fragment, and an {e in-boundary} node if some cross
    edge enters it.  Queries that stay inside a fragment never leave it;
    queries that cross are stitched through boundary nodes
    ({!Dist_reach}). *)

type strategy =
  | Hash  (** node id modulo fragment count — the worst case for locality *)
  | Contiguous  (** equal ranges of node ids — good when ids are crawl order *)
  | Bfs  (** greedy BFS growth per fragment — locality-preserving *)

type fragment = {
  id : int;
  graph : Digraph.t;  (** induced local subgraph *)
  to_global : int array;  (** local node id → global node id *)
  in_boundary : int array;  (** local ids receiving cross edges, sorted *)
  out_boundary : int array;  (** local ids with outgoing cross edges, sorted *)
}

type t = {
  original_n : int;
  fragments : fragment array;
  owner : int array;  (** global node → fragment id *)
  local_of : int array;  (** global node → local id within its fragment *)
  cross_edges : (int * int) list;  (** global (u, v) pairs across fragments *)
}

(** [make ?seed g ~fragments ~strategy] fragments [g].  [fragments] is
    clamped to [1 .. max 1 |V|].
    @raise Invalid_argument if [fragments < 1]. *)
val make : ?seed:int -> Digraph.t -> fragments:int -> strategy:strategy -> t

(** [validate t ~original] checks the fragmentation partitions the nodes
    and accounts for every edge exactly once.  @raise Failure if broken. *)
val validate : t -> original:Digraph.t -> unit

(** [edge_cut t] is the number of cross edges, the usual partition-quality
    metric. *)
val edge_cut : t -> int
