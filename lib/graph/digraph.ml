(* Backend-polymorphic compressed-sparse-row storage.

   Logically every graph is the same structure: per-node successor slices,
   strictly sorted and deduplicated, plus the mirrored in-adjacency.  The
   physical representation is pluggable per direction:

   - [Sflat]    heap int arrays (the original CSR): one flat adjacency
                array indexed by an [n+1]-entry offset array;
   - [Smapped]  the same two arrays as [Bigarray] views over an mmap'd
                'M' snapshot — zero-copy, O(1) load, page-cache resident;
   - [Svarint]  gap+LEB128 delta-encoded adjacency: a per-node int32
                byte-offset index into one byte stream holding
                [degree, first, gap, gap, ...] per node.

   All consumers go through the accessors below; the raw-array surface
   ([out_csr]/[in_csr], [succ_slice]) is preserved by materialising a
   cached "dense view" on non-flat backends, or by decoding into a
   per-domain scratch buffer for slices.  [reverse] stays O(1): the two
   direction records swap roles. *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type int32_ba =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type backend = Flat | Mapped | Varint

type store =
  | Sflat of { off : int array; adj : int array }
  | Smapped of { off : int_ba; adj : int_ba }
  | Svarint of { idx : int32_ba; data : string }

(* One direction of adjacency.  [dense] caches the materialised flat view
   for non-flat stores (for [Sflat] it aliases the store itself and costs
   nothing); it is an [Atomic] because pool workers may force it
   concurrently — both compute identical immutable arrays, so whichever
   publication wins is correct.  [scratch] is the per-domain slice-decode
   buffer, present iff the store is not flat; keying by [Domain.DLS] keeps
   concurrent slice decodes from different pool workers from trampling
   each other. *)
type side = {
  store : store;
  dense : (int array * int array) option Atomic.t;
  scratch : int array ref Domain.DLS.key option;
}

type labels_store = Lheap of int array | Lmapped of int_ba | L32 of int32_ba

(* [by_label] caches the label index: the nodes grouped by label as a CSR
   of [label_count + 1] offsets over ascending ids.  Built on first use;
   an [Atomic] for the same reason as [side.dense].  It lives with the
   labels, so [with_labels] starts a fresh one. *)
type lab = {
  ls : labels_store;
  dense_labels : int array option Atomic.t;
  by_label : (int array * int array) option Atomic.t;
}

type t = {
  n : int;
  m : int;
  label_count : int;
  lab : lab;
  fwd : side; (* out-adjacency *)
  bwd : side; (* in-adjacency *)
}

let compute_label_count labels =
  Array.fold_left (fun acc l -> if l >= acc then l + 1 else acc) 1 labels

let check_labels ~fn n = function
  | None -> Array.make n 0
  | Some l ->
      if Array.length l <> n then
        invalid_arg (fn ^ ": label array length mismatch");
      Array.iter
        (fun x -> if x < 0 then invalid_arg (fn ^ ": negative label"))
        l;
      Array.copy l

let mk_lab ls ~dense =
  { ls; dense_labels = Atomic.make dense; by_label = Atomic.make None }

let flat_side off adj =
  {
    store = Sflat { off; adj };
    dense = Atomic.make (Some (off, adj));
    scratch = None;
  }

let scratch_key () = Some (Domain.DLS.new_key (fun () -> ref [||]))

let mk_flat ~n ~labels ~out_off ~out_adj ~in_off ~in_adj =
  {
    n;
    m = Array.length out_adj;
    label_count = compute_label_count labels;
    lab = mk_lab (Lheap labels) ~dense:(Some labels);
    fwd = flat_side out_off out_adj;
    bwd = flat_side in_off in_adj;
  }

(* CSR construction by two stable counting sorts of the first [m0] edges:
   sorting by destination and then (stably) by source leaves them in (src,
   dst) lexicographic order in O(n + m) with no comparison sort; duplicates
   are then adjacent and collapse in one compaction pass. *)
let csr_of_edges ~n ~m0 (src : int array) (dst : int array) =
  (* Pass 1: stable counting sort by dst. *)
  let cnt = Array.make (n + 1) 0 in
  for i = 0 to m0 - 1 do
    cnt.(dst.(i)) <- cnt.(dst.(i)) + 1
  done;
  let pos = ref 0 in
  for v = 0 to n - 1 do
    let c = cnt.(v) in
    cnt.(v) <- !pos;
    pos := !pos + c
  done;
  let s1 = Array.make m0 0 and d1 = Array.make m0 0 in
  for i = 0 to m0 - 1 do
    let p = cnt.(dst.(i)) in
    cnt.(dst.(i)) <- p + 1;
    s1.(p) <- src.(i);
    d1.(p) <- dst.(i)
  done;
  (* Pass 2: stable counting sort by src; result is (src, dst)-sorted. *)
  let off = Array.make (n + 1) 0 in
  for i = 0 to m0 - 1 do
    off.(s1.(i) + 1) <- off.(s1.(i) + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  (* The source column after this pass would be [u] repeated across each
     [off]-range, so only the destination column is materialised. *)
  let cursor = Array.sub off 0 n in
  let d2 = Array.make m0 0 in
  for i = 0 to m0 - 1 do
    let u = s1.(i) in
    let p = cursor.(u) in
    cursor.(u) <- p + 1;
    d2.(p) <- d1.(i)
  done;
  (* Compact adjacent duplicates, rebuilding the offsets. *)
  let out_off = Array.make (n + 1) 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    out_off.(u) <- !k;
    let lo = off.(u) and hi = off.(u + 1) in
    for i = lo to hi - 1 do
      if i = lo || d2.(i) <> d2.(i - 1) then begin
        d2.(!k) <- d2.(i);
        incr k
      end
    done
  done;
  out_off.(n) <- !k;
  let out_adj = if !k = m0 then d2 else Array.sub d2 0 !k in
  (out_off, out_adj)

(* Mirror a CSR: counting sort of the (u, v) pairs by v.  Scanning u in
   ascending order keeps each in-slice sorted. *)
let mirror_csr ~n (out_off : int array) (out_adj : int array) =
  let m = Array.length out_adj in
  let in_off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    in_off.(out_adj.(i) + 1) <- in_off.(out_adj.(i) + 1) + 1
  done;
  for v = 0 to n - 1 do
    in_off.(v + 1) <- in_off.(v + 1) + in_off.(v)
  done;
  let cursor = Array.sub in_off 0 n in
  let in_adj = Array.make m 0 in
  for u = 0 to n - 1 do
    for i = out_off.(u) to out_off.(u + 1) - 1 do
      let v = out_adj.(i) in
      let p = cursor.(v) in
      cursor.(v) <- p + 1;
      in_adj.(p) <- u
    done
  done;
  (in_off, in_adj)

let of_edge_arrays ~n ~m ~labels src dst =
  let out_off, out_adj = csr_of_edges ~n ~m0:m src dst in
  let in_off, in_adj = mirror_csr ~n out_off out_adj in
  mk_flat ~n ~labels ~out_off ~out_adj ~in_off ~in_adj

let make_arrays ~n ?labels edges =
  if n < 0 then invalid_arg "Digraph.make: negative node count";
  let labels = check_labels ~fn:"Digraph.make" n labels in
  let m0 = Array.length edges in
  let src = Array.make m0 0 and dst = Array.make m0 0 in
  Array.iteri
    (fun i (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Digraph.make: edge (%d,%d) out of range [0,%d)" u v n);
      src.(i) <- u;
      dst.(i) <- v)
    edges;
  of_edge_arrays ~n ~m:m0 ~labels src dst

let make ~n ?labels edges = make_arrays ~n ?labels (Array.of_list edges)
let empty = make ~n:0 []

(* Trusted constructor for I/O paths that already hold a canonical CSR
   (strictly sorted, deduplicated slices): skips the counting sorts and
   only rebuilds the mirror.  Caller-checked; [validate] re-verifies. *)
let of_csr_unchecked ~n ~labels ~out_off ~out_adj =
  let in_off, in_adj = mirror_csr ~n out_off out_adj in
  mk_flat ~n ~labels ~out_off ~out_adj ~in_off ~in_adj

(* Trusted constructor for the 'M' snapshot loader: both mirrors are
   already materialised in the mapped file, so building the value is O(1)
   regardless of graph size. *)
let of_mapped_unchecked ~n ~m ~label_count ~labels ~out_off ~out_adj ~in_off
    ~in_adj =
  {
    n;
    m;
    label_count;
    lab = mk_lab (Lmapped labels) ~dense:None;
    fwd = { store = Smapped { off = out_off; adj = out_adj }; dense = Atomic.make None;
            scratch = scratch_key () };
    bwd = { store = Smapped { off = in_off; adj = in_adj }; dense = Atomic.make None;
            scratch = scratch_key () };
  }

(* Trusted constructor for the 'V' snapshot loader; the caller has already
   run the checked decode over both streams. *)
let of_varint_unchecked ~n ~m ~label_count ~labels ~out_idx ~out_data ~in_idx
    ~in_data =
  {
    n;
    m;
    label_count;
    lab = mk_lab (L32 labels) ~dense:None;
    fwd = { store = Svarint { idx = out_idx; data = out_data }; dense = Atomic.make None;
            scratch = scratch_key () };
    bwd = { store = Svarint { idx = in_idx; data = in_data }; dense = Atomic.make None;
            scratch = scratch_key () };
  }

let n g = g.n
let m g = g.m
let size g = g.n + g.m

let backend g =
  match g.fwd.store with
  | Sflat _ -> Flat
  | Smapped _ -> Mapped
  | Svarint _ -> Varint

let backend_name g =
  match backend g with Flat -> "flat" | Mapped -> "mmap" | Varint -> "varint"

(* ------------------------------------------------------------------ *)
(* Per-direction dispatch *)

let side_degree sd v =
  match sd.store with
  | Sflat { off; _ } -> off.(v + 1) - off.(v)
  | Smapped { off; _ } -> off.{v + 1} - off.{v}
  | Svarint { idx; data } ->
      let pos = ref (Int32.to_int idx.{v}) in
      Varint.read_trusted data pos

let side_iter sd v f =
  match sd.store with
  | Sflat { off; adj } ->
      for i = off.(v) to off.(v + 1) - 1 do
        f adj.(i)
      done
  | Smapped { off; adj } ->
      for i = off.{v} to off.{v + 1} - 1 do
        f adj.{i}
      done
  | Svarint { idx; data } ->
      let pos = ref (Int32.to_int idx.{v}) in
      let deg = Varint.read_trusted data pos in
      let x = ref 0 in
      for i = 0 to deg - 1 do
        let d = Varint.read_trusted data pos in
        x := (if i = 0 then d else !x + d);
        f !x
      done

(* Grow-on-demand per-domain decode buffer.  Only non-flat sides carry a
   key, so flat graphs never touch DLS. *)
let scratch_for sd deg =
  match sd.scratch with
  | None -> [||] (* unreachable: flat slices never decode *)
  | Some key ->
      let cell = Domain.DLS.get key in
      if Array.length !cell < deg then begin
        let len = ref (Mono.imax 8 (Array.length !cell)) in
        while !len < deg do
          len := 2 * !len
        done;
        cell := Array.make !len 0
      end;
      !cell

let side_slice sd v =
  match sd.store with
  | Sflat { off; adj } -> (adj, off.(v), off.(v + 1) - off.(v))
  | Smapped { off; adj } ->
      let lo = off.{v} in
      let deg = off.{v + 1} - lo in
      let buf = scratch_for sd deg in
      for i = 0 to deg - 1 do
        buf.(i) <- adj.{lo + i}
      done;
      (buf, 0, deg)
  | Svarint { idx; data } ->
      let pos = ref (Int32.to_int idx.{v}) in
      let deg = Varint.read_trusted data pos in
      let buf = scratch_for sd deg in
      let x = ref 0 in
      for i = 0 to deg - 1 do
        let d = Varint.read_trusted data pos in
        x := (if i = 0 then d else !x + d);
        buf.(i) <- !x
      done;
      (buf, 0, deg)

(* Binary search for [x] in the slice [a.(lo) .. a.(hi-1)]. *)
let mem_slice (a : int array) lo hi (x : int) =
  let limit = hi in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < limit && a.(!lo) = x

let ba_mem_slice (a : int_ba) lo hi (x : int) =
  let limit = hi in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.{mid} < x then lo := mid + 1 else hi := mid
  done;
  !lo < limit && a.{!lo} = x

let side_mem sd v x =
  match sd.store with
  | Sflat { off; adj } -> mem_slice adj off.(v) off.(v + 1) x
  | Smapped { off; adj } -> ba_mem_slice adj off.{v} off.{v + 1} x
  | Svarint { idx; data } ->
      (* Decode-scan with early exit: slices are sorted, so stop at the
         first value ≥ x. *)
      let pos = ref (Int32.to_int idx.{v}) in
      let deg = Varint.read_trusted data pos in
      let cur = ref 0 and i = ref 0 and found = ref false and stop = ref false in
      while (not !stop) && !i < deg do
        let d = Varint.read_trusted data pos in
        cur := (if !i = 0 then d else !cur + d);
        if !cur >= x then begin
          found := !cur = x;
          stop := true
        end;
        incr i
      done;
      !found

(* Successor scans for the stores that are not flat arrays, stopping at
   the first successor in [set], each a toplevel recursion so that no
   call allocates. *)
let rec mapped_meets set (adj : int_ba) i stop =
  i < stop && (Bitset.mem set adj.{i} || mapped_meets set adj (i + 1) stop)

(* The varint at [pos] with [acc]/[shift] the bits read so far. *)
let rec varint_at data pos acc shift =
  let b = Char.code (String.get data pos) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else varint_at data (pos + 1) acc (shift + 7)

(* [left] successors from [pos], gap-coded after [x] (0 before the
   first, which is stored as is), one byte per step. *)
let rec varint_meets set data pos left x acc shift =
  left > 0
  &&
  let b = Char.code (String.get data pos) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b >= 0x80 then varint_meets set data (pos + 1) left x acc (shift + 7)
  else
    Bitset.mem set (x + acc)
    || varint_meets set data (pos + 1) (left - 1) (x + acc) 0 0

let side_meets sd v set =
  match sd.store with
  | Sflat { off; adj } ->
      Bitset.meets_slice set adj off.(v) (off.(v + 1) - off.(v))
  | Smapped { off; adj } -> mapped_meets set adj off.{v} off.{v + 1}
  | Svarint { idx; data } ->
      let pos = Int32.to_int idx.{v} in
      let deg = varint_at data pos 0 0 in
      (* Encodings are minimal, so the degree's length is its own. *)
      varint_meets set data (pos + Varint.byte_length deg) deg 0 0 0

(* One [keep_with_succ_in] over a store that is not flat: the walk
   passes this record and a toplevel function to [Bitset.iter_with]. *)
type keep = {
  side : side;
  from : Bitset.t;
  into : Bitset.t;
  mutable dropped : bool;
}

let keep_one k v =
  if not (side_meets k.side v k.into) then begin
    Bitset.remove k.from v;
    k.dropped <- true
  end

let side_keep sd s t =
  match sd.store with
  | Sflat { off; adj } -> Bitset.keep_meeting s ~off ~adj t
  | Smapped _ | Svarint _ ->
      let k = { side = sd; from = s; into = t; dropped = false } in
      Bitset.iter_with keep_one k s;
      k.dropped

(* Materialise (and cache) the flat view of a non-flat side.  Concurrent
   forcing from two domains duplicates work but stays correct: both
   compute identical immutable arrays and one atomic publication wins. *)
let force_dense n sd =
  match Atomic.get sd.dense with
  | Some d -> d
  | None ->
      let off = Array.make (n + 1) 0 in
      for v = 0 to n - 1 do
        off.(v + 1) <- off.(v) + side_degree sd v
      done;
      let adj = Array.make off.(n) 0 in
      let k = ref 0 in
      for v = 0 to n - 1 do
        side_iter sd v (fun w ->
            adj.(!k) <- w;
            incr k)
      done;
      let d = (off, adj) in
      Atomic.set sd.dense (Some d);
      d

(* ------------------------------------------------------------------ *)
(* Accessors *)

let label g v =
  match g.lab.ls with
  | Lheap a -> a.(v)
  | Lmapped ba -> ba.{v}
  | L32 ba -> Int32.to_int ba.{v}

let labels g =
  match Atomic.get g.lab.dense_labels with
  | Some a -> a
  | None ->
      let a =
        match g.lab.ls with
        | Lheap a -> a
        | Lmapped ba -> Array.init g.n (fun v -> ba.{v})
        | L32 ba -> Array.init g.n (fun v -> Int32.to_int ba.{v})
      in
      Atomic.set g.lab.dense_labels (Some a);
      a

let label_count g = g.label_count

let label_index g =
  match Atomic.get g.lab.by_label with
  | Some ix -> ix
  | None ->
      let k = g.label_count in
      let off = Array.make (k + 1) 0 in
      for v = 0 to g.n - 1 do
        let l = label g v + 1 in
        off.(l) <- off.(l) + 1
      done;
      for l = 1 to k do
        off.(l) <- off.(l) + off.(l - 1)
      done;
      let fill = Array.sub off 0 k and ids = Array.make g.n 0 in
      for v = 0 to g.n - 1 do
        let l = label g v in
        ids.(fill.(l)) <- v;
        fill.(l) <- fill.(l) + 1
      done;
      let ix = (off, ids) in
      Atomic.set g.lab.by_label (Some ix);
      ix

let label_slice g l =
  let off, ids = label_index g in
  if l < 0 || l >= g.label_count then (ids, 0, 0)
  else (ids, off.(l), off.(l + 1) - off.(l))

let out_degree g v = side_degree g.fwd v
let in_degree g v = side_degree g.bwd v
let succ_slice g v = side_slice g.fwd v
let pred_slice g v = side_slice g.bwd v
let out_csr g = force_dense g.n g.fwd
let in_csr g = force_dense g.n g.bwd
let mem_edge g u v = side_mem g.fwd u v
let keep_with_succ_in g s t = side_keep g.fwd s t
let iter_succ g v f = side_iter g.fwd v f
let iter_pred g v f = side_iter g.bwd v f

let fold_succ g v f init =
  let acc = ref init in
  side_iter g.fwd v (fun w -> acc := f !acc w);
  !acc

let fold_pred g v f init =
  let acc = ref init in
  side_iter g.bwd v (fun w -> acc := f !acc w);
  !acc

let iter_edges g f =
  match g.fwd.store with
  | Sflat { off; adj } ->
      (* Fast path: no per-node closure. *)
      for u = 0 to g.n - 1 do
        for i = off.(u) to off.(u + 1) - 1 do
          f u adj.(i)
        done
      done
  | _ ->
      for u = 0 to g.n - 1 do
        side_iter g.fwd u (fun v -> f u v)
      done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edge_array g =
  let out = Array.make g.m (0, 0) in
  let k = ref 0 in
  iter_edges g (fun u v ->
      out.(!k) <- (u, v);
      incr k);
  out

(* ------------------------------------------------------------------ *)
(* Memory accounting (one word = 8 bytes).

   Flat reproduces the historical formula exactly: five flat int arrays
   with one header word each plus a 9-word record.  Mapped counts the
   mapped byte ranges (page-cache resident, not heap).  Varint counts the
   int32 index bigarrays and the byte streams.  A forced dense view or a
   materialised label array on a non-flat backend is extra resident memory
   and is included when present. *)

let side_bytes sd =
  let store =
    match sd.store with
    | Sflat { off; adj } -> 8 * (Array.length off + Array.length adj + 2)
    | Smapped { off; adj } ->
        8 * (Bigarray.Array1.dim off + Bigarray.Array1.dim adj)
    | Svarint { idx; data } ->
        (4 * Bigarray.Array1.dim idx) + String.length data + 16
  in
  let extra =
    match (sd.store, Atomic.get sd.dense) with
    | Sflat _, _ | _, None -> 0
    | _, Some (off, adj) -> 8 * (Array.length off + Array.length adj + 2)
  in
  store + extra

let labels_bytes g =
  let store =
    match g.lab.ls with
    | Lheap a -> 8 * (Array.length a + 1)
    | Lmapped ba -> 8 * Bigarray.Array1.dim ba
    | L32 ba -> (4 * Bigarray.Array1.dim ba) + 8
  in
  let extra =
    match (g.lab.ls, Atomic.get g.lab.dense_labels) with
    | Lheap _, _ | _, None -> 0
    | _, Some a -> 8 * (Array.length a + 1)
  in
  let index =
    match Atomic.get g.lab.by_label with
    | None -> 0
    | Some (off, ids) -> 8 * (Array.length off + Array.length ids + 2)
  in
  store + extra + index

let memory_bytes g = side_bytes g.fwd + side_bytes g.bwd + labels_bytes g + 72

(* ------------------------------------------------------------------ *)
(* Derived graphs *)

(* The in-CSR of [g] is exactly the out-CSR of the reversed graph, so
   reversing is just swapping the two direction records — no copying; the
   dense caches and scratch buffers travel with their side. *)
let reverse g = { g with fwd = g.bwd; bwd = g.fwd }

let with_labels g labels =
  if Array.length labels <> g.n then
    invalid_arg "Digraph.with_labels: length mismatch";
  let labels = Array.copy labels in
  {
    g with
    lab = mk_lab (Lheap labels) ~dense:(Some labels);
    label_count = compute_label_count labels;
  }

let append_edges g extra =
  (* Existing edges are already (src, dst)-sorted and deduplicated, so the
     counting sorts in [csr_of_edges] treat them as a stable prefix. *)
  let k = List.length extra in
  let src = Array.make (g.m + k) 0 and dst = Array.make (g.m + k) 0 in
  let i = ref 0 in
  iter_edges g (fun u v ->
      src.(!i) <- u;
      dst.(!i) <- v;
      incr i);
  List.iter
    (fun (u, v) ->
      src.(!i) <- u;
      dst.(!i) <- v;
      incr i)
    extra;
  of_edge_arrays ~n:g.n ~m:(g.m + k) ~labels:(Array.copy (labels g)) src dst

let add_edges g es =
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= g.n || v < 0 || v >= g.n then
        invalid_arg "Digraph.add_edges: endpoint out of range")
    es;
  append_edges g es

let filter_rebuild g ~removed ~extra =
  let k = List.length extra in
  let src = Array.make (g.m + k) 0 and dst = Array.make (g.m + k) 0 in
  let i = ref 0 in
  iter_edges g (fun u v ->
      if not (Mono.Ptbl.mem removed (u, v)) then begin
        src.(!i) <- u;
        dst.(!i) <- v;
        incr i
      end);
  List.iter
    (fun (u, v) ->
      src.(!i) <- u;
      dst.(!i) <- v;
      incr i)
    extra;
  of_edge_arrays ~n:g.n ~m:!i ~labels:(Array.copy (labels g)) src dst

let remove_edges g es =
  let removed = Mono.Ptbl.create ((List.length es * 2) + 1) in
  List.iter (fun (u, v) -> Mono.Ptbl.replace removed (u, v) ()) es;
  filter_rebuild g ~removed ~extra:[]

let edit g ~add ~remove =
  let removed = Mono.Ptbl.create ((2 * List.length remove) + 1) in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= g.n || v < 0 || v >= g.n then
        invalid_arg "Digraph.edit: endpoint out of range";
      Mono.Ptbl.replace removed (u, v) ())
    remove;
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= g.n || v < 0 || v >= g.n then
        invalid_arg "Digraph.edit: endpoint out of range";
      Mono.Ptbl.remove removed (u, v))
    add;
  filter_rebuild g ~removed ~extra:add

let induced g nodes =
  let k = Array.length nodes in
  let old_to_new = Mono.Itbl.create ((2 * k) + 1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= g.n then invalid_arg "Digraph.induced: node out of range";
      if Mono.Itbl.mem old_to_new v then
        invalid_arg "Digraph.induced: duplicate node";
      Mono.Itbl.replace old_to_new v i)
    nodes;
  let sub_labels = Array.map (fun v -> label g v) nodes in
  (* Count, then fill: no intermediate boxing. *)
  let count = ref 0 in
  Array.iter
    (fun v ->
      iter_succ g v (fun w -> if Mono.Itbl.mem old_to_new w then incr count))
    nodes;
  let src = Array.make !count 0 and dst = Array.make !count 0 in
  let i = ref 0 in
  Array.iteri
    (fun ni v ->
      iter_succ g v (fun w ->
          match Mono.Itbl.find_opt old_to_new w with
          | Some nw ->
              src.(!i) <- ni;
              dst.(!i) <- nw;
              incr i
          | None -> ()))
    nodes;
  (of_edge_arrays ~n:k ~m:!count ~labels:sub_labels src dst, Array.copy nodes)

let quotient ?labels ~self_loops ~class_of ~k g =
  if Array.length class_of <> g.n then
    invalid_arg "Digraph.quotient: class map length mismatch";
  Array.iter
    (fun c ->
      if c < 0 || c >= k then
        invalid_arg
          (Printf.sprintf "Digraph.quotient: class %d out of range [0,%d)" c k))
    class_of;
  let labels = check_labels ~fn:"Digraph.quotient" k labels in
  let src = Array.make g.m 0 and dst = Array.make g.m 0 in
  let i = ref 0 in
  iter_edges g (fun u v ->
      let cu = class_of.(u) and cv = class_of.(v) in
      if self_loops || cu <> cv then begin
        src.(!i) <- cu;
        dst.(!i) <- cv;
        incr i
      end);
  of_edge_arrays ~n:k ~m:!i ~labels src dst

(* ------------------------------------------------------------------ *)
(* Backend conversions *)

let to_flat g =
  match (g.fwd.store, g.bwd.store, g.lab.ls) with
  | Sflat _, Sflat _, Lheap _ -> g
  | _ ->
      let out_off, out_adj = force_dense g.n g.fwd in
      let in_off, in_adj = force_dense g.n g.bwd in
      let labels = labels g in
      {
        n = g.n;
        m = g.m;
        label_count = g.label_count;
        lab = mk_lab (Lheap labels) ~dense:(Some labels);
        fwd = flat_side out_off out_adj;
        bwd = flat_side in_off in_adj;
      }

let max_int32 = 0x7fffffff

let encode_varint_side n sd =
  let buf = Buffer.create 1024 in
  let idx = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (n + 1) in
  let prev = ref 0 and i = ref 0 in
  for v = 0 to n - 1 do
    idx.{v} <- Int32.of_int (Buffer.length buf);
    Varint.add buf (side_degree sd v);
    prev := 0;
    i := 0;
    side_iter sd v (fun w ->
        Varint.add buf (if !i = 0 then w else w - !prev);
        prev := w;
        incr i)
  done;
  if Buffer.length buf > max_int32 then
    invalid_arg "Digraph.to_varint: adjacency stream exceeds 2 GiB";
  idx.{n} <- Int32.of_int (Buffer.length buf);
  {
    store = Svarint { idx; data = Buffer.contents buf };
    dense = Atomic.make None;
    scratch = scratch_key ();
  }

let to_varint g =
  match (g.fwd.store, g.bwd.store) with
  | Svarint _, Svarint _ -> g
  | _ ->
      if g.n > max_int32 then invalid_arg "Digraph.to_varint: too many nodes";
      let l32 = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout g.n in
      for v = 0 to g.n - 1 do
        let l = label g v in
        if l > max_int32 then invalid_arg "Digraph.to_varint: label too large";
        l32.{v} <- Int32.of_int l
      done;
      {
        n = g.n;
        m = g.m;
        label_count = g.label_count;
        lab = mk_lab (L32 l32) ~dense:None;
        fwd = encode_varint_side g.n g.fwd;
        bwd = encode_varint_side g.n g.bwd;
      }

(* ------------------------------------------------------------------ *)
(* Comparison and printing *)

let succ_equal a b v =
  side_degree a.fwd v = side_degree b.fwd v
  &&
  (* Decode a's slice first; iterating b's side below touches only b's own
     scratch (or none), so the two cannot alias destructively even when
     [a == b]. *)
  let base, start, _ = side_slice a.fwd v in
  let i = ref start and ok = ref true in
  side_iter b.fwd v (fun w ->
      if !ok then begin
        if base.(!i) <> w then ok := false;
        incr i
      end);
  !ok

let equal a b =
  a.n = b.n && a.m = b.m
  && (let rec go v = v >= a.n || (label a v = label b v && go (v + 1)) in
      go 0)
  && (let rec go v = v >= a.n || (succ_equal a b v && go (v + 1)) in
      go 0)

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n g.m;
  for v = 0 to g.n - 1 do
    let succs = ref [] in
    iter_succ g v (fun w -> succs := w :: !succs);
    Format.fprintf ppf "  %d[l%d] -> %a@," v (label g v)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      (List.rev !succs)
  done;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Validation *)

let validate g =
  let fail fmt = Format.kasprintf failwith fmt in
  (match g.lab.ls with
  | Lheap a -> if Array.length a <> g.n then fail "labels length"
  | Lmapped ba -> if Bigarray.Array1.dim ba <> g.n then fail "labels length"
  | L32 ba -> if Bigarray.Array1.dim ba <> g.n then fail "labels length");
  for v = 0 to g.n - 1 do
    let l = label g v in
    if l < 0 || l >= g.label_count then
      fail "label %d of node %d outside [0,%d)" l v g.label_count
  done;
  let check_side name sd =
    (* Offset/index structural checks per store. *)
    (match sd.store with
    | Sflat { off; adj } ->
        if Array.length off <> g.n + 1 then fail "%s offsets length" name;
        if Array.length off > 0 && off.(0) <> 0 then
          fail "%s offsets do not start at 0" name;
        for v = 0 to g.n - 1 do
          if off.(v) > off.(v + 1) then
            fail "%s offsets not monotone at %d" name v
        done;
        if off.(g.n) <> Array.length adj then
          fail "%s offsets/adjacency mismatch" name;
        if Array.length adj <> g.m then fail "%s edge count" name
    | Smapped { off; adj } ->
        if Bigarray.Array1.dim off <> g.n + 1 then fail "%s offsets length" name;
        if off.{0} <> 0 then fail "%s offsets do not start at 0" name;
        for v = 0 to g.n - 1 do
          if off.{v} > off.{v + 1} then
            fail "%s offsets not monotone at %d" name v
        done;
        if off.{g.n} <> Bigarray.Array1.dim adj then
          fail "%s offsets/adjacency mismatch" name;
        if Bigarray.Array1.dim adj <> g.m then fail "%s edge count" name
    | Svarint { idx; data } ->
        if Bigarray.Array1.dim idx <> g.n + 1 then fail "%s index length" name;
        if idx.{0} <> 0l then fail "%s index does not start at 0" name;
        if Int32.to_int idx.{g.n} <> String.length data then
          fail "%s index/stream length mismatch" name;
        (* Checked, canonical re-decode of every node block. *)
        let total = ref 0 in
        for v = 0 to g.n - 1 do
          let lo = Int32.to_int idx.{v} and hi = Int32.to_int idx.{v + 1} in
          if lo > hi then fail "%s index not monotone at %d" name v;
          (match
             let deg, p = Varint.read data lo in
             let p = ref p in
             for i = 1 to deg do
               let d, p' = Varint.read data !p in
               if i > 1 && d = 0 then
                 raise (Varint.Error "zero gap (duplicate neighbour)");
               p := p'
             done;
             if !p <> hi then
               raise (Varint.Error "node block length mismatch");
             total := !total + deg
           with
          | () -> ()
          | exception Varint.Error msg -> fail "%s(%d): %s" name v msg)
        done;
        if !total <> g.m then fail "%s edge count" name);
    (* Slice content checks, store-independent. *)
    for v = 0 to g.n - 1 do
      let prev = ref (-1) and first = ref true in
      side_iter sd v (fun w ->
          if w < 0 || w >= g.n then fail "%s(%d): out of range" name v;
          if (not !first) && !prev >= w then
            fail "%s(%d): slice not strictly sorted" name v;
          first := false;
          prev := w)
    done
  in
  check_side "succ" g.fwd;
  check_side "pred" g.bwd;
  iter_edges g (fun u v ->
      if not (side_mem g.bwd v u) then fail "missing mirror edge (%d,%d)" u v)
