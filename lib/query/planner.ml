type route = Bfs | Bibfs | Index | Grail_fallback

let route_name = function
  | Bfs -> "bfs"
  | Bibfs -> "bibfs"
  | Index -> "index"
  | Grail_fallback -> "grail"

type stats = {
  nodes : int;
  edges : int;
  is_dag : bool option;
  grail_fallback_rate : float option;
}

type engine =
  | E_bfs
  | E_bibfs
  | E_index of Reach_index.t
  | E_grail of Grail.t

type t = { g : Digraph.t; engine : engine; stats : stats }

(* Routing mix, visible in --metrics: one counter per engine plus the
   degree/reflexivity short-circuits that never reach an engine. *)
let c_bfs = Obs.counter "planner.route.bfs"
let c_bibfs = Obs.counter "planner.route.bibfs"
let c_index = Obs.counter "planner.route.index"
let c_grail = Obs.counter "planner.route.grail"
let c_trivial = Obs.counter "planner.route.trivial"

(* Below this size a query is one or two cache-resident frontier
   expansions; planning machinery costs more than it saves. *)
let tiny_graph = 256

(* Keep the sampled GRAIL as the batch engine while at most this fraction
   of sampled queries needed the DFS fallback. *)
let max_fallback_rate = 0.25

let create ?pool ?index ?(seed = 0x914) ?(samples = 64) g =
  Obs.span "planner.create" (fun () ->
      let nodes = Digraph.n g and edges = Digraph.m g in
      match index with
      | Some idx ->
          (* An index answers in O(log) with no per-query traversal; nothing
             the planner could learn about G beats it. *)
          {
            g;
            engine = E_index idx;
            stats = { nodes; edges; is_dag = None; grail_fallback_rate = None };
          }
      | None ->
          if nodes <= tiny_graph then
            {
              g;
              engine = E_bfs;
              stats =
                { nodes; edges; is_dag = None; grail_fallback_rate = None };
            }
          else begin
            let scc = Scc.compute g in
            let is_dag = not (Array.exists Fun.id scc.Scc.nontrivial) in
            (* Sample the reachability density through GRAIL's fallback
               rate: when interval containment settles most queries the
               index is near-exact and keeps amortising; when most positive
               tests fall through to the pruned DFS, the labeling carries
               little information and bidirectional search wins. *)
            let grail = Grail.build ?pool ~seed g in
            let rng = Random.State.make [| seed; nodes; edges |] in
            let before = Grail.fallbacks grail in
            for _ = 1 to samples do
              let u = Random.State.int rng nodes
              and v = Random.State.int rng nodes in
              ignore (Grail.query grail u v)
            done;
            let rate =
              float_of_int (Grail.fallbacks grail - before)
              /. float_of_int (Mono.imax 1 samples)
            in
            let engine =
              if rate <= max_fallback_rate then E_grail grail else E_bibfs
            in
            {
              g;
              engine;
              stats =
                {
                  nodes;
                  edges;
                  is_dag = Some is_dag;
                  grail_fallback_rate = Some rate;
                };
            }
          end)

let route t =
  match t.engine with
  | E_bfs -> Bfs
  | E_bibfs -> Bibfs
  | E_index _ -> Index
  | E_grail _ -> Grail_fallback

let stats t = t.stats

let describe t =
  let s = t.stats in
  let extras =
    (match s.is_dag with
    | Some d -> Printf.sprintf ", dag = %b" d
    | None -> "")
    ^
    match s.grail_fallback_rate with
    | Some r -> Printf.sprintf ", sampled fallback rate = %.2f" r
    | None -> ""
  in
  Printf.sprintf "route = %s (|V| = %d, |E| = %d%s)"
    (route_name (route t))
    s.nodes s.edges extras

(* A source with no out-edge or a target with no in-edge settles the
   query in O(1), whatever the engine; so does [source = target], the one
   short-circuit that answers [true]. *)
let trivial t source target =
  source = target
  || Digraph.out_degree t.g source = 0
  || Digraph.in_degree t.g target = 0

(* [k] queries went to the engine: its route counter, and an index's own
   query counter, which [Reach_index.answer] leaves to its caller. *)
let count_engine t k =
  match t.engine with
  | E_bfs -> Obs.add c_bfs k
  | E_bibfs -> Obs.add c_bibfs k
  | E_index _ ->
      Obs.add c_index k;
      Reach_index.count_queries k
  | E_grail _ -> Obs.add c_grail k

let engine_answer t source target =
  match t.engine with
  | E_bfs -> Traversal.bfs_reaches t.g source target
  | E_bibfs -> Traversal.bibfs_reaches t.g source target
  | E_index idx -> Reach_index.answer idx source target
  | E_grail grail -> Grail.query grail source target

let eval t ~source ~target =
  if trivial t source target then begin
    Obs.incr c_trivial;
    source = target
  end
  else begin
    count_engine t 1;
    engine_answer t source target
  end

let eval_into ?pool t ~src ~dst ~off ~len out =
  Reach_query.check_slice "Planner.eval_into" ~src ~dst ~off ~len out;
  Obs.span "planner.batch" (fun () ->
      let pool = match pool with Some p -> p | None -> Pool.default () in
      Pool.parallel_for_ranges pool ~n:len (fun lo hi ->
          (* Route counters move once per chunk, not once per query. *)
          let trivials = ref 0 in
          for i = off + lo to off + hi - 1 do
            let s = src.(i) and d = dst.(i) in
            let r =
              if trivial t s d then begin
                incr trivials;
                s = d
              end
              else engine_answer t s d
            in
            Bytes.set out i (if r then '\001' else '\000')
          done;
          Obs.add c_trivial !trivials;
          count_engine t (hi - lo - !trivials)))
