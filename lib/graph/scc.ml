type t = {
  count : int;
  comp : int array;
  members : int array array;
  nontrivial : bool array;
}

(* Iterative Tarjan over flat int arrays: the DFS frames are (node,
   next-edge position) pairs in [frame_v]/[frame_e] and the node stack is
   [stack], so no tuple or list cell is allocated per visit.  A node is on
   at most one frame and at most once on the node stack, so n cells bound
   both.  A visited node is on the node stack iff it has no component
   yet, so [comp.(w) < 0] stands in for an on-stack flag.  lowlink is
   folded back when a frame is popped. *)
let compute g =
  let n = Digraph.n g in
  let out_off, out_adj = Digraph.out_csr g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let comp = Array.make n (-1) in
  let stack = Array.make n 0 in
  let sp = ref 0 in
  let frame_v = Array.make n 0 in
  let frame_e = Array.make n 0 in
  let fp = ref 0 in
  let next_index = ref 0 in
  let scc_count = ref 0 in
  let visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    frame_v.(!fp) <- v;
    frame_e.(!fp) <- out_off.{v};
    incr fp
  in
  let start root =
    visit root;
    while !fp > 0 do
      let top = !fp - 1 in
      let v = frame_v.(top) and e = frame_e.(top) in
      if e < out_off.{v + 1} then begin
        let w = out_adj.{e} in
        frame_e.(top) <- e + 1;
        if index.(w) < 0 then visit w
        else if comp.(w) < 0 && index.(w) < lowlink.(v) then
          lowlink.(v) <- index.(w)
      end
      else begin
        fp := top;
        if lowlink.(v) = index.(v) then begin
          (* v is an SCC root: pop the component. *)
          let c = !scc_count in
          incr scc_count;
          let continue = ref true in
          while !continue do
            decr sp;
            let w = stack.(!sp) in
            comp.(w) <- c;
            if w = v then continue := false
          done
        end;
        (* Propagate lowlink to the parent frame, if any. *)
        if top > 0 then begin
          let p = frame_v.(top - 1) in
          if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v)
        end
      end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then start v
  done;
  let count = !scc_count in
  let sizes = Array.make count 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
  let members = Array.init count (fun c -> Array.make sizes.(c) 0) in
  let fill = Array.make count 0 in
  for v = 0 to n - 1 do
    let c = comp.(v) in
    members.(c).(fill.(c)) <- v;
    fill.(c) <- fill.(c) + 1
  done;
  let nontrivial =
    Array.init count (fun c ->
        Array.length members.(c) > 1
        ||
        let v = members.(c).(0) in
        Digraph.mem_edge g v v)
  in
  { count; comp; members; nontrivial }

let condensation g scc =
  Digraph.quotient ~self_loops:false ~class_of:scc.comp ~k:scc.count g

let same_scc scc u v = scc.comp.(u) = scc.comp.(v)
