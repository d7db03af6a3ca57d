type result = {
  queries : int;
  batches : int;
  elapsed_s : float;
  qps : float;
  latencies_us : float array;
  answers : bool array;
}

(* Workers write disjoint [lo, hi) slices of [answers]; no locking
   needed.  Latencies come back through the join. *)
let worker ~connect ~batch ~pairs ~answers lo hi () =
  let c = connect () in
  Fun.protect
    ~finally:(fun () -> Server_client.close c)
    (fun () ->
      let lats = ref [] in
      let batches = ref 0 in
      let off = ref lo in
      while !off < hi do
        let k = Mono.imin batch (hi - !off) in
        let chunk = Array.sub pairs !off k in
        let t0 = Obs.Clock.now_ns () in
        let a = Server_client.reach c chunk in
        let dt = Obs.Clock.ns_to_us (Obs.Clock.now_ns () - t0) in
        if Array.length a <> k then
          failwith "Server_loadgen: answer count does not match the batch";
        Array.blit a 0 answers !off k;
        lats := dt :: !lats;
        incr batches;
        off := !off + k
      done;
      (!lats, !batches))

let run ~connect ~concurrency ~batch ~pairs =
  if concurrency < 1 then invalid_arg "Server_loadgen.run: concurrency < 1";
  if batch < 1 then invalid_arg "Server_loadgen.run: batch < 1";
  let total = Array.length pairs in
  let answers = Array.make total false in
  let conc = Mono.imax 1 (Mono.imin concurrency total) in
  let bounds =
    Array.init conc (fun i -> (total * i / conc, total * (i + 1) / conc))
  in
  let t0 = Obs.Clock.now_ns () in
  let doms =
    Array.map
      (fun (lo, hi) -> Domain.spawn (worker ~connect ~batch ~pairs ~answers lo hi))
      bounds
  in
  let per = Array.map Domain.join doms in
  let elapsed_s = Obs.Clock.elapsed_s t0 in
  let latencies_us =
    Array.concat (Array.to_list (Array.map (fun (l, _) -> Array.of_list l) per))
  in
  Array.sort Float.compare latencies_us;
  let batches = Array.fold_left (fun acc (_, b) -> acc + b) 0 per in
  {
    queries = total;
    batches;
    elapsed_s;
    qps = float_of_int total /. Float.max elapsed_s 1e-9;
    latencies_us;
    answers;
  }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. Float.floor rank in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end
