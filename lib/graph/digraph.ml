(* Compressed-sparse-row graph storage.

   Logically every graph is the same structure: per-node successor slices,
   strictly sorted and deduplicated, plus the mirrored in-adjacency.  Each
   direction is held by one of two stores:

   - [Scsr]     an [n+1]-entry offset array over one flat adjacency array,
                both [int] Bigarrays; the labels are a third.  A graph
                built in memory allocates them off the OCaml heap; an mmap
                load of an 'M' snapshot maps them over the file's pages,
                zero-copy and O(1) in the graph size.  The two differ only
                in where the arrays live, which [t.mapped] records;
   - [Svarint]  gap+LEB128 delta-encoded adjacency: a per-node int32
                byte-offset index into one byte stream holding
                [degree, first, gap, gap, ...] per node.

   All consumers go through the accessors below.  On the CSR store a slice
   is a view into the graph's own arrays and [out_csr]/[in_csr] are those
   arrays.  Only the varint store decodes: slices into a per-domain scratch
   buffer, [out_csr]/[in_csr] into a cached dense copy, and
   [keep_with_succ_in] through the [keep] record.  [reverse] stays O(1):
   the two direction stores swap roles. *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type int32_ba =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type backend = Flat | Mapped | Varint

(* One direction of adjacency.  A varint store caches its materialised
   CSR in [dense], an [Atomic] because pool workers may force it
   concurrently — both compute identical immutable arrays, so whichever
   publication wins is correct — and decodes slices into the per-domain
   buffer under [scratch], so that concurrent decodes from different pool
   workers do not trample each other. *)
type store =
  | Scsr of (int_ba * int_ba) (* offsets, adjacency *)
  | Svarint of {
      idx : int32_ba;
      data : string;
      dense : (int_ba * int_ba) option Atomic.t;
      scratch : int_ba ref Domain.DLS.key;
    }

(* The labels: a third array of the CSR store, or the varint backend's
   int32 array. *)
type labels_store = Lcsr of int_ba | L32 of int32_ba

(* [dense_labels] caches the heap array {!labels} returns, [by_label]
   the label index: the nodes grouped by label as a CSR of
   [label_count + 1] offsets over ascending ids, and [by_succ] the
   successor-label filter: per label l, the nodes with a successor
   labelled l, or [[||]] over the size cap.  All three are built on
   first use, in an [Atomic] for the same reason as a varint store's
   [dense].  They live with the labels, so [with_labels] starts fresh
   ones; [by_succ] reads the out-adjacency too, so [reverse] starts a
   fresh one of it. *)
type lab = {
  ls : labels_store;
  dense_labels : int array option Atomic.t;
  by_label : (int array * int array) option Atomic.t;
  by_succ : Bitset.t array option Atomic.t;
}

type t = {
  n : int;
  m : int;
  label_count : int;
  mapped : bool; (* the CSR store is a view over an 'M' file *)
  lab : lab;
  fwd : store; (* out-adjacency *)
  bwd : store; (* in-adjacency *)
}

let dim = Bigarray.Array1.dim
let ba_create n : int_ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let ba_copy (a : int_ba) =
  let c = ba_create (dim a) in
  Bigarray.Array1.blit a c;
  c

(* [Bigarray.Array1.of_array] makes one C call per element. *)
let ba_of_array (a : int array) =
  let c = ba_create (Array.length a) in
  Array.iteri (fun i x -> c.{i} <- x) a;
  c

let label_count_of (labels : int_ba) =
  let k = ref 1 in
  for v = 0 to dim labels - 1 do
    if labels.{v} >= !k then k := labels.{v} + 1
  done;
  !k

let check_labels ~fn n = function
  | None ->
      let a = ba_create n in
      Bigarray.Array1.fill a 0;
      a
  | Some l ->
      if Array.length l <> n then
        invalid_arg (fn ^ ": label array length mismatch");
      Array.iter
        (fun x -> if x < 0 then invalid_arg (fn ^ ": negative label"))
        l;
      ba_of_array l

let mk_lab ls =
  {
    ls;
    dense_labels = Atomic.make None;
    by_label = Atomic.make None;
    by_succ = Atomic.make None;
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
  (* Compact adjacent duplicates, writing the offsets into the store. *)
  let out_off = ba_create (n + 1) in
  let k = ref 0 in
  for u = 0 to n - 1 do
    out_off.{u} <- !k;
    let lo = off.(u) and hi = off.(u + 1) in
    for i = lo to hi - 1 do
      if i = lo || d2.(i) <> d2.(i - 1) then begin
        d2.(!k) <- d2.(i);
        incr k
      end
    done
  done;
  out_off.{n} <- !k;
  let out_adj = ba_create !k in
  for i = 0 to !k - 1 do
    out_adj.{i} <- d2.(i)
  done;
  (out_off, out_adj)

(* Mirror a CSR: counting sort of the (u, v) pairs by v.  Scanning u in
   ascending order keeps each in-slice sorted. *)
let mirror_csr ~n (out_off : int_ba) (out_adj : int_ba) =
  let m = dim out_adj in
  let in_off = ba_create (n + 1) in
  Bigarray.Array1.fill in_off 0;
  for i = 0 to m - 1 do
    in_off.{out_adj.{i} + 1} <- in_off.{out_adj.{i} + 1} + 1
  done;
  for v = 0 to n - 1 do
    in_off.{v + 1} <- in_off.{v + 1} + in_off.{v}
  done;
  let cursor = Array.init n (fun v -> in_off.{v}) in
  let in_adj = ba_create m in
  for u = 0 to n - 1 do
    for i = out_off.{u} to out_off.{u + 1} - 1 do
      let v = out_adj.{i} in
      let p = cursor.(v) in
      cursor.(v) <- p + 1;
      in_adj.{p} <- u
    done
  done;
  (in_off, in_adj)

(* The one trusted constructor of a CSR-store graph: the builders below,
   the 'G' loader and both 'M' loaders end here. *)
let of_csr_unchecked ?(mapped = false) ?label_count ?in_csr ~n ~labels
    ~out_off ~out_adj () =
  let in_csr =
    match in_csr with Some c -> c | None -> mirror_csr ~n out_off out_adj
  in
  {
    n;
    m = dim out_adj;
    label_count =
      (match label_count with Some k -> k | None -> label_count_of labels);
    mapped;
    lab = mk_lab (Lcsr labels);
    fwd = Scsr (out_off, out_adj);
    bwd = Scsr in_csr;
  }

let of_edge_arrays ~n ~m ~labels src dst =
  let out_off, out_adj = csr_of_edges ~n ~m0:m src dst in
  of_csr_unchecked ~n ~labels ~out_off ~out_adj ()

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

let scratch_key () = Domain.DLS.new_key (fun () -> ref (ba_create 0))

let varint_store idx data =
  Svarint { idx; data; dense = Atomic.make None; scratch = scratch_key () }

(* Trusted constructor for the 'V' snapshot loader, which runs [validate]
   (the checked decode of both streams) on the result. *)
let of_varint_unchecked ~n ~m ~label_count ~labels ~out_idx ~out_data ~in_idx
    ~in_data =
  {
    n;
    m;
    label_count;
    mapped = false;
    lab = mk_lab (L32 labels);
    fwd = varint_store out_idx out_data;
    bwd = varint_store in_idx in_data;
  }

let n g = g.n
let m g = g.m
let size g = g.n + g.m

let backend g =
  match g.fwd with
  | Svarint _ -> Varint
  | Scsr _ -> if g.mapped then Mapped else Flat

let backend_name g =
  match backend g with Flat -> "flat" | Mapped -> "mmap" | Varint -> "varint"

(* ------------------------------------------------------------------ *)
(* Per-direction dispatch *)

let side_degree sd v =
  match sd with
  | Scsr (off, _) -> off.{v + 1} - off.{v}
  | Svarint { idx; data; _ } ->
      let pos = ref (Int32.to_int idx.{v}) in
      Varint.read_trusted data pos

let side_iter sd v f =
  match sd with
  | Scsr (off, adj) ->
      for i = off.{v} to off.{v + 1} - 1 do
        f adj.{i}
      done
  | Svarint { idx; data; _ } ->
      let pos = ref (Int32.to_int idx.{v}) in
      let deg = Varint.read_trusted data pos in
      let x = ref 0 in
      for i = 0 to deg - 1 do
        let d = Varint.read_trusted data pos in
        x := (if i = 0 then d else !x + d);
        f !x
      done

(* Grow-on-demand per-domain decode buffer of a varint store. *)
let scratch_for key deg =
  let cell = Domain.DLS.get key in
  if dim !cell < deg then begin
    let len = ref (Mono.imax 8 (dim !cell)) in
    while !len < deg do
      len := 2 * !len
    done;
    cell := ba_create !len
  end;
  !cell

let side_slice sd v =
  match sd with
  | Scsr (off, adj) -> (adj, off.{v}, off.{v + 1} - off.{v})
  | Svarint { idx; data; scratch; _ } ->
      let pos = ref (Int32.to_int idx.{v}) in
      let deg = Varint.read_trusted data pos in
      let buf = scratch_for scratch deg in
      let x = ref 0 in
      for i = 0 to deg - 1 do
        let d = Varint.read_trusted data pos in
        x := (if i = 0 then d else !x + d);
        buf.{i} <- !x
      done;
      (buf, 0, deg)

(* Binary search for [x] in the slice [a.{lo} .. a.{hi-1}]. *)
let mem_slice (a : int_ba) lo hi (x : int) =
  let limit = hi in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.{mid} < x then lo := mid + 1 else hi := mid
  done;
  !lo < limit && a.{!lo} = x

let side_mem sd v x =
  match sd with
  | Scsr (off, adj) -> mem_slice adj off.{v} off.{v + 1} x
  | Svarint { idx; data; _ } ->
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

(* The varint at [pos] with [acc]/[shift] the bits read so far. *)
let rec varint_at data pos acc shift =
  let b = Char.code (String.get data pos) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else varint_at data (pos + 1) acc (shift + 7)

(* [left] successors from [pos], gap-coded after [x] (0 before the
   first, which is stored as is), one byte per step, stopping at the
   first in [set]: a toplevel recursion, so that no call allocates. *)
let rec varint_meets set data pos left x acc shift =
  left > 0
  &&
  let b = Char.code (String.get data pos) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b >= 0x80 then varint_meets set data (pos + 1) left x acc (shift + 7)
  else
    Bitset.mem set (x + acc)
    || varint_meets set data (pos + 1) (left - 1) (x + acc) 0 0

(* One [keep_with_succ_in] over a varint store: the walk passes this
   record and a toplevel function to [Bitset.iter_with]. *)
type keep = {
  idx : int32_ba;
  data : string;
  from : Bitset.t;
  into : Bitset.t;
  mutable dropped : bool;
}

let keep_one k v =
  let pos = Int32.to_int k.idx.{v} in
  let deg = varint_at k.data pos 0 0 in
  (* Encodings are minimal, so the degree's length is its own. *)
  if not (varint_meets k.into k.data (pos + Varint.byte_length deg) deg 0 0 0)
  then begin
    Bitset.remove k.from v;
    k.dropped <- true
  end

let side_keep sd s t =
  match sd with
  | Scsr (off, adj) -> Bitset.keep_meeting s ~off ~adj t
  | Svarint { idx; data; _ } ->
      let k = { idx; data; from = s; into = t; dropped = false } in
      Bitset.iter_with keep_one k s;
      k.dropped

(* Materialise (and cache) the CSR of a varint store.  Concurrent forcing
   from two domains duplicates work but stays correct: both compute
   identical immutable arrays and one atomic publication wins. *)
let force_dense n sd dense =
  let off = ba_create (n + 1) in
  off.{0} <- 0;
  for v = 0 to n - 1 do
    off.{v + 1} <- off.{v} + side_degree sd v
  done;
  let adj = ba_create off.{n} in
  let k = ref 0 in
  for v = 0 to n - 1 do
    side_iter sd v (fun w ->
        adj.{!k} <- w;
        incr k)
  done;
  let d = (off, adj) in
  Atomic.set dense (Some d);
  d

let side_csr n sd =
  match sd with
  | Scsr csr -> csr
  | Svarint { dense; _ } -> (
      match Atomic.get dense with Some d -> d | None -> force_dense n sd dense)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let label g v =
  match g.lab.ls with Lcsr a -> a.{v} | L32 a -> Int32.to_int a.{v}

let labels g =
  match Atomic.get g.lab.dense_labels with
  | Some a -> a
  | None ->
      let a = Array.init g.n (label g) in
      Atomic.set g.lab.dense_labels (Some a);
      a

(* A fresh copy of [g]'s labels, in the CSR store's form. *)
let labels_ba g =
  match g.lab.ls with
  | Lcsr a -> ba_copy a
  | L32 _ ->
      let a = ba_create g.n in
      for v = 0 to g.n - 1 do
        a.{v} <- label g v
      done;
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

let label_ids g = snd (label_index g)

(* One pass over the out-adjacency: bit v of set l for each successor of
   v labelled l.  A CSR store may be mapped from a corrupt file; every
   read here is bounds-checked, so a row that leaves its array, or an id
   outside [0, n), raises [Invalid_argument], as [keep_meeting] does. *)
let build_succ_labelled g =
  let sets = Array.init g.label_count (fun _ -> Bitset.create g.n) in
  for v = 0 to g.n - 1 do
    side_iter g.fwd v (fun w -> Bitset.add sets.(label g w) v)
  done;
  sets

(* The words of a bitset over [n] nodes, as [Bitset.create] sizes it. *)
let set_words n = Mono.imax 1 ((n + 62) / 63)

(* Built only when its [label_count * set_words n] words are no more
   than the out-CSR's [n + m + 1]. *)
let succ_labelled g =
  match Atomic.get g.lab.by_succ with
  | Some sets -> sets
  | None ->
      let sets =
        if g.label_count > (g.n + g.m + 1) / set_words g.n then [||]
        else build_succ_labelled g
      in
      Atomic.set g.lab.by_succ (Some sets);
      sets

let label_first g l =
  if l < 0 || l >= g.label_count then 0 else (fst (label_index g)).(l)

let label_len g l =
  if l < 0 || l >= g.label_count then 0
  else
    let off = fst (label_index g) in
    off.(l + 1) - off.(l)

let out_degree g v = side_degree g.fwd v
let in_degree g v = side_degree g.bwd v
let succ_slice g v = side_slice g.fwd v
let pred_slice g v = side_slice g.bwd v
let out_csr g = side_csr g.n g.fwd
let in_csr g = side_csr g.n g.bwd
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
  match g.fwd with
  | Scsr (off, adj) ->
      (* Fast path: no per-node closure. *)
      for u = 0 to g.n - 1 do
        for i = off.{u} to off.{u + 1} - 1 do
          f u adj.{i}
        done
      done
  | Svarint _ ->
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

   The CSR store counts its arrays with one header word each, plus a
   9-word record, whether the arrays are heap or mapped (page-cache
   resident) memory.  Varint counts the int32 index bigarrays and the
   byte streams.  A forced dense view of a varint store, the heap label
   array of {!labels} and the label index are extra resident memory and
   are included once built. *)

let csr_bytes (off, adj) = 8 * (dim off + dim adj + 2)

let side_bytes = function
  | Scsr csr -> csr_bytes csr
  | Svarint { idx; data; dense; _ } ->
      (4 * dim idx) + String.length data + 16
      + Option.fold ~none:0 ~some:csr_bytes (Atomic.get dense)

let labels_bytes g =
  let store =
    match g.lab.ls with Lcsr a -> 8 * (dim a + 1) | L32 a -> (4 * dim a) + 8
  in
  let dense =
    match Atomic.get g.lab.dense_labels with
    | None -> 0
    | Some a -> 8 * (Array.length a + 1)
  in
  let index =
    match Atomic.get g.lab.by_label with
    | None -> 0
    | Some (off, ids) -> 8 * (Array.length off + Array.length ids + 2)
  in
  let filter =
    match Atomic.get g.lab.by_succ with
    | None -> 0
    | Some sets ->
        (* each set: a two-field record and its words, with their headers *)
        8 * ((Array.length sets * (set_words g.n + 4)) + 1)
  in
  store + dense + index + filter

let memory_bytes g = side_bytes g.fwd + side_bytes g.bwd + labels_bytes g + 72

(* ------------------------------------------------------------------ *)
(* Derived graphs *)

(* The in-CSR of [g] is exactly the out-CSR of the reversed graph, so
   reversing is just swapping the two direction stores — no copying; the
   dense caches and scratch buffers travel with their side, and the
   successor-label filter, built over [fwd], starts afresh. *)
let reverse g =
  let lab = { g.lab with by_succ = Atomic.make None } in
  { g with fwd = g.bwd; bwd = g.fwd; lab }

let with_labels g labels =
  if Array.length labels <> g.n then
    invalid_arg "Digraph.with_labels: length mismatch";
  let labels = ba_of_array labels in
  { g with lab = mk_lab (Lcsr labels); label_count = label_count_of labels }

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
  of_edge_arrays ~n:g.n ~m:(g.m + k) ~labels:(labels_ba g) src dst

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
  of_edge_arrays ~n:g.n ~m:!i ~labels:(labels_ba g) src dst
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
  let sub_labels = ba_create k in
  Array.iteri (fun i v -> sub_labels.{i} <- label g v) nodes;
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
  match backend g with
  | Flat -> g
  | Mapped | Varint ->
      let heap = function
        | Scsr (off, adj) -> Scsr (ba_copy off, ba_copy adj)
        | Svarint _ as sd -> Scsr (side_csr g.n sd)
      in
      {
        g with
        mapped = false;
        lab = mk_lab (Lcsr (labels_ba g));
        fwd = heap g.fwd;
        bwd = heap g.bwd;
      }

let max_int32 = 0x7fffffff

(* The one gap+LEB128 encoder (see [varint_rows]); the [Svarint] arm of
   [validate] is its one checked decoder. *)
let encode_rows n sd =
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
    invalid_arg "Digraph.varint_rows: adjacency stream exceeds 2 GiB";
  idx.{n} <- Int32.of_int (Buffer.length buf);
  (idx, Buffer.contents buf)

let varint_rows g =
  let rows = function
    | Svarint { idx; data; _ } -> (idx, data)
    | Scsr _ as sd -> encode_rows g.n sd
  in
  (rows g.fwd, rows g.bwd)

let to_varint g =
  match g.fwd with
  | Svarint _ -> g
  | Scsr _ ->
      if g.n > max_int32 then invalid_arg "Digraph.to_varint: too many nodes";
      let l32 = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout g.n in
      for v = 0 to g.n - 1 do
        let l = label g v in
        if l > max_int32 then invalid_arg "Digraph.to_varint: label too large";
        l32.{v} <- Int32.of_int l
      done;
      let (out_idx, out_data), (in_idx, in_data) = varint_rows g in
      {
        g with
        mapped = false;
        lab = mk_lab (L32 l32);
        fwd = varint_store out_idx out_data;
        bwd = varint_store in_idx in_data;
      }

(* ------------------------------------------------------------------ *)
(* Comparison and printing *)

let succ_equal a b v =
  side_degree a.fwd v = side_degree b.fwd v
  &&
  (* Take a's slice first; iterating b's side below touches only b's own
     scratch (or none), so the two cannot alias destructively even when
     [a == b]. *)
  let base, start, _ = side_slice a.fwd v in
  let i = ref start and ok = ref true in
  side_iter b.fwd v (fun w ->
      if !ok then begin
        if base.{!i} <> w then ok := false;
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
  let labels_len = match g.lab.ls with Lcsr a -> dim a | L32 a -> dim a in
  if labels_len <> g.n then fail "labels length";
  for v = 0 to g.n - 1 do
    let l = label g v in
    if l < 0 || l >= g.label_count then
      fail "label %d of node %d outside [0,%d)" l v g.label_count
  done;
  let check_side name sd =
    (* Offset/index structural checks per store. *)
    (match sd with
    | Scsr (off, adj) ->
        if dim off <> g.n + 1 then fail "%s offsets length" name;
        if off.{0} <> 0 then fail "%s offsets do not start at 0" name;
        for v = 0 to g.n - 1 do
          if off.{v} > off.{v + 1} then
            fail "%s offsets not monotone at %d" name v
        done;
        if off.{g.n} <> dim adj then fail "%s offsets/adjacency mismatch" name;
        if dim adj <> g.m then fail "%s edge count" name
    | Svarint { idx; data; _ } ->
        if dim idx <> g.n + 1 then fail "%s index length" name;
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
