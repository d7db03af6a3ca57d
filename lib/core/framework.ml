module type SCHEME = sig
  type query
  type answer

  val name : string
  val evaluate : Digraph.t -> query -> answer
  val compress : Digraph.t -> Compressed.t
  val rewrite : Compressed.t -> query -> query
  val post_process : Compressed.t -> answer -> answer
end

module Make (S : SCHEME) = struct
  type t = Compressed.t

  let prepare g = S.compress g
  let adopt c = c
  let query c q = S.post_process c (S.evaluate (Compressed.graph c) (S.rewrite c q))
  let direct g q = S.evaluate g q
  let compressed c = c
end

module Reachability = struct
  type query = int * int
  type answer = bool

  let name = "reachability"

  (* Nonempty-path semantics make the class uniform: QR(v, v) asks for a
     cycle through v, which the hypernode self-loop encodes, so the exact
     same evaluator answers original and rewritten queries.  The reflexive
     convention is a trivial wrapper on top (Compress_reach.answer). *)
  let evaluate g (u, v) =
    Reach_query.eval_nonempty Reach_query.Bfs g ~source:u ~target:v

  let compress g = Compress_reach.compress g
  let rewrite c (u, v) = Compress_reach.rewrite c ~source:u ~target:v
  let post_process _ answer = answer
end

module Patterns = struct
  type query = Pattern.t
  type answer = Pattern.result

  let name = "patterns"
  let evaluate g p = Bounded_sim.eval p g
  let compress g = Compress_bisim.compress g
  let rewrite _ p = p
  let post_process c r = Compressed.expand_result c r
end

module Path_queries = struct
  type query = Rpq.t
  type answer = int array

  let name = "path-queries"

  let evaluate g r = Bitset.to_array (Rpq.matches r g)
  let compress g = Compress_bisim.compress g
  let rewrite _ r = r
  let post_process c hypernodes = Compressed.expand_nodes c hypernodes
end
