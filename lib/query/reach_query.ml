type algorithm = Bfs | Bibfs | Dfs

let all_algorithms = [ Bfs; Bibfs; Dfs ]

let algorithm_name = function
  | Bfs -> "BFS"
  | Bibfs -> "BiBFS"
  | Dfs -> "DFS"

let c_evals = Obs.counter "query.reach_evals"

let eval algo g ~source ~target =
  Obs.incr c_evals;
  match algo with
  | Bfs -> Traversal.bfs_reaches g source target
  | Bibfs -> Traversal.bibfs_reaches g source target
  | Dfs -> Traversal.dfs_reaches g source target

let eval_nonempty algo g ~source ~target =
  if source <> target then eval algo g ~source ~target
  else Traversal.bfs_reaches_nonempty g source target

let eval_batch ?pool algo g pairs =
  Obs.span "query.batch" (fun () ->
      let pool = match pool with Some p -> p | None -> Pool.default () in
      let res = Array.make (Array.length pairs) false in
      Pool.parallel_for pool ~n:(Array.length pairs) (fun i ->
          let source, target = pairs.(i) in
          res.(i) <- eval algo g ~source ~target);
      res)

type flat_eval =
  src:int array -> dst:int array -> off:int -> len:int -> Bytes.t -> unit

let check_slice who ~src ~dst ~off ~len out =
  if
    off < 0 || len < 0
    || off > Array.length src - len
    || off > Array.length dst - len
    || off > Bytes.length out - len
  then invalid_arg (who ^ ": slice out of range")

let eval_pairs (eval_into : flat_eval) pairs =
  let n = Array.length pairs in
  let src = Array.make n 0 and dst = Array.make n 0 in
  for i = 0 to n - 1 do
    let s, d = pairs.(i) in
    src.(i) <- s;
    dst.(i) <- d
  done;
  let out = Bytes.create n in
  eval_into ~src ~dst ~off:0 ~len:n out;
  let res = Array.make n false in
  for i = 0 to n - 1 do
    res.(i) <- Bytes.get out i <> '\000'
  done;
  res

let random_pairs rng g ~count =
  let n = Digraph.n g in
  if n = 0 && count > 0 then
    invalid_arg "Reach_query.random_pairs: empty graph";
  Array.init count (fun _ ->
      (Random.State.int rng n, Random.State.int rng n))
