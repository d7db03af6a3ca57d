(* Tests for the graph substrate: bitsets, digraphs, traversals, SCC,
   topological ranks, transitive closure/reduction, generators, I/O and
   edge updates. *)

let qtest = Testutil.qtest

(* ------------------------------------------------------------------ *)
(* Bitset *)

let bitset_unit () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "fresh empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 64; 99 ] (Bitset.to_list s);
  Alcotest.(check (option int)) "choose" (Some 0) (Bitset.choose s);
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s);
  Alcotest.(check (option int)) "choose empty" None (Bitset.choose s)

let bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add oob"
    (Invalid_argument "Bitset: index 10 out of range [0,10)") (fun () ->
      Bitset.add s 10);
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitset: index -1 out of range [0,10)") (fun () ->
      ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Bitset.create: negative capacity") (fun () ->
      ignore (Bitset.create (-3)))

let bitset_zero_capacity () =
  let s = Bitset.create 0 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal s)

(* Every bit position of a word, the sign bit (62) included, walks back
   out of [to_array] and [iter]; [iter] lets [f] remove the member it is
   given. *)
let bitset_every_position () =
  let n = 200 in
  let s = Bitset.create n in
  let all = Array.init n Fun.id in
  Bitset.add_slice s all 0 n;
  Alcotest.(check (array int)) "to_array" all (Bitset.to_array s);
  let walked = ref [] in
  Bitset.iter
    (fun i ->
      walked := i :: !walked;
      Bitset.remove s i)
    s;
  Alcotest.(check (list int)) "iter" (Array.to_list all) (List.rev !walked);
  Alcotest.(check bool) "removed while iterating" true (Bitset.is_empty s);
  Bitset.add_slice s [| 5; 62; 125; 188; 199 |] 1 3;
  Alcotest.(check (list int)) "slice bounds" [ 62; 125; 188 ] (Bitset.to_list s);
  Alcotest.check_raises "add_slice range"
    (Invalid_argument "Bitset: index 200 out of range [0,200)") (fun () ->
      Bitset.add_slice s [| 200 |] 0 1)

let int_sets_gen =
  let open QCheck2.Gen in
  let* a = list_size (int_range 0 40) (int_range 0 99) in
  let* b = list_size (int_range 0 40) (int_range 0 99) in
  pure (a, b)

let arb_int_sets =
  ( int_sets_gen,
    fun (a, b) ->
      Printf.sprintf "(%s | %s)"
        (String.concat "," (List.map string_of_int a))
        (String.concat "," (List.map string_of_int b)) )

let module_of xs = List.sort_uniq compare xs

let bitset_props =
  [
    qtest "add_slice and to_array match list model" arb_int_sets (fun (a, b) ->
        let s = Bitset.create 100 and xs = Array.of_list (a @ b) in
        Bitset.add_slice s xs (List.length a) (List.length b);
        Array.to_list (Bitset.to_array s) = module_of b);
    qtest "union matches list model" arb_int_sets (fun (a, b) ->
        let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
        ignore (Bitset.union_into ~into:sa sb);
        Bitset.to_list sa = module_of (a @ b));
    qtest "inter matches list model" arb_int_sets (fun (a, b) ->
        let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
        let kept = List.filter (fun x -> List.mem x b) (module_of a) in
        Bitset.inter_into ~into:sa sb = (kept <> module_of a)
        && Bitset.to_list sa = kept);
    qtest "diff matches list model" arb_int_sets (fun (a, b) ->
        let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
        Bitset.diff_into ~into:sa sb;
        Bitset.to_list sa
        = List.filter (fun x -> not (List.mem x b)) (module_of a));
    qtest "union_into reports change" arb_int_sets (fun (a, b) ->
        let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
        let changed = Bitset.union_into ~into:(Bitset.copy sa) sb in
        changed = not (Bitset.subset sb sa));
    qtest "inter_cardinal" arb_int_sets (fun (a, b) ->
        let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
        Bitset.inter_cardinal sa sb
        = List.length (List.filter (fun x -> List.mem x b) (module_of a)));
    qtest "disjoint iff empty intersection" arb_int_sets (fun (a, b) ->
        let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
        Bitset.disjoint sa sb = (Bitset.inter_cardinal sa sb = 0));
    qtest "subset" arb_int_sets (fun (a, b) ->
        let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
        Bitset.subset sa sb
        = List.for_all (fun x -> List.mem x b) a);
    qtest "equal sets hash equally" arb_int_sets (fun (a, _) ->
        let s1 = Bitset.of_list 100 a and s2 = Bitset.of_list 100 (List.rev a) in
        Bitset.equal s1 s2 && Bitset.hash s1 = Bitset.hash s2);
  ]

(* ------------------------------------------------------------------ *)
(* Row kernels against a per-member model *)

(* [add_slice], [union_rows], [keep_meeting], [write_u32_le] and
   [cardinal] run in C over the words of a set, and [add_range] sets
   whole words.  Each property replays its kernel with
   [Bitset.add], [mem] and [remove], one member at a time, and asks for
   the same outcome: the same result, or [Invalid_argument] on the same
   input; then the same words in every set, the padding bits of the
   last word included, and the same bytes.  So a rejection must leave
   exactly what the model wrote before it, and nothing past it.
   Universes straddle the word edges, ids at bit 62 (a word's sign bit)
   come often, and some ids, rows, offset arrays, slices and positions
   are invalid, so that rejections are drawn too. *)

let kernel_universe = QCheck2.Gen.oneofl [ 0; 1; 62; 63; 64; 126; 127 ]

(* An id of a universe of [n]: in range, often at a word edge or the
   sign bit; with [~bad], one in about thirty outside it. *)
let kernel_id ~bad n =
  let open QCheck2.Gen in
  let outside = oneofl [ -1; n; n + 1; max_int; min_int ] in
  let edges =
    List.filter (fun i -> i >= 0 && i < n) [ 0; 61; 62; 63; 124; 125; 126; n - 1 ]
  in
  if n = 0 then outside
  else
    frequency
      ([ (20, int_range 0 (n - 1)); (8, oneofl edges) ]
      @ if bad then [ (1, outside) ] else [])

let kernel_members n =
  let open QCheck2.Gen in
  if n = 0 then pure [] else list_size (int_range 0 40) (kernel_id ~bad:false n)

(* A CSR of [rows] rows over ids of a universe of [n].  One draw in ten
   has a non-empty row that leaves [ids] (from -1, or past its end), one
   in twenty an [off] with only [rows] cells. *)
let kernel_csr rows n =
  let open QCheck2.Gen in
  let* lens = list_repeat rows (int_range 0 5) in
  let* ids = array_repeat (List.fold_left ( + ) 0 lens) (kernel_id ~bad:true n) in
  let+ fault =
    frequency
      [
        (17, pure `None);
        (2, map (fun h -> `Row h) (int_range 0 (Mono.imax 0 (rows - 1))));
        (1, pure `Short);
      ]
  in
  let off = Array.make (rows + 1) 0 in
  List.iteri (fun h l -> off.(h + 1) <- off.(h) + l) lens;
  match fault with
  | `Row h when rows > 0 ->
      if h mod 2 = 0 then off.(h) <- -1 else off.(h + 1) <- Array.length ids + 1;
      (off, ids)
  | `Short -> (Array.sub off 0 rows, ids)
  | `None | `Row _ -> (off, ids)

let ints a = "[" ^ String.concat ";" (List.map string_of_int a) ^ "]"
let int_arr a = ints (Array.to_list a)

let outcome f =
  match f () with x -> Ok x | exception Invalid_argument _ -> Error ()

(* [Bitset.add] of [a.(j) .. a.(hi - 1)], one at a time, up to the first
   id outside [m]'s universe; [false] iff it stopped there. *)
let rec model_add m a j hi =
  j >= hi
  ||
  let i = a.(j) in
  i >= 0 && i < Bitset.universe_size m && (Bitset.add m i; model_add m a (j + 1) hi)

let row_leaves off ids h =
  off.(h) < off.(h + 1) && (off.(h) < 0 || off.(h + 1) > Array.length ids)

let kernel_add_slice =
  let gen =
    let open QCheck2.Gen in
    let* n = kernel_universe in
    let* init = kernel_members n in
    let* a = array_size (int_range 0 12) (kernel_id ~bad:true n) in
    let la = Array.length a in
    let* start = frequency [ (9, int_range 0 la); (1, int_range (-2) (la + 2)) ] in
    let+ len =
      frequency
        [ (9, int_range 0 (Mono.imax 0 (la - start))); (1, int_range (-2) (la + 2)) ]
    in
    (n, init, a, start, len)
  in
  qtest ~count:1000 "kernel add_slice matches per-member add"
    ( gen,
      fun (n, init, a, start, len) ->
        Printf.sprintf "n=%d init=%s a=%s start=%d len=%d" n (ints init) (int_arr a)
          start len )
    (fun (n, init, a, start, len) ->
      let s = Bitset.of_list n init and m = Bitset.of_list n init in
      let got = outcome (fun () -> Bitset.add_slice s a start len) in
      let want =
        outcome (fun () ->
            if len > 0 && (start < 0 || start + len > Array.length a) then
              invalid_arg "slice";
            if len > 0 && not (model_add m a start (start + len)) then
              invalid_arg "id")
      in
      got = want && Bitset.equal s m)

let kernel_union_rows =
  let gen =
    let open QCheck2.Gen in
    let* n = kernel_universe and* rows = kernel_universe in
    let* init = kernel_members n and* sel = kernel_members rows in
    let+ off, ids = kernel_csr rows n in
    (n, rows, init, sel, off, ids)
  in
  qtest ~count:1000 "kernel union_rows matches per-member add"
    ( gen,
      fun (n, rows, init, sel, off, ids) ->
        Printf.sprintf "n=%d rows=%d into=%s sel=%s off=%s ids=%s" n rows (ints init)
          (ints sel) (int_arr off) (int_arr ids) )
    (fun (n, rows, init, sel, off, ids) ->
      let into = Bitset.of_list n init and m = Bitset.of_list n init in
      let sel = Bitset.of_list rows sel in
      let sel0 = Bitset.copy sel in
      let got = outcome (fun () -> Bitset.union_rows ~into ~off ~ids sel) in
      let want =
        outcome (fun () ->
            if Array.length off <= rows then invalid_arg "off";
            for h = 0 to rows - 1 do
              if Bitset.mem sel h then begin
                if row_leaves off ids h then invalid_arg "row";
                if not (model_add m ids off.(h) off.(h + 1)) then invalid_arg "id"
              end
            done)
      in
      got = want && Bitset.equal into m && Bitset.equal sel sel0)

(* [keep_meeting] of [s] against [t] ([s] itself when [same]) replays as
   [mem] over each row of a member, in increasing order. *)
let keep_meeting_print (n, nt, same, s, t, off, adj) =
  Printf.sprintf "n=%d nt=%d same=%b s=%s t=%s off=%s adj=%s" n nt same (ints s)
    (ints t) (int_arr off) (int_arr adj)

let keep_meeting_agrees (n, nt, same, s, t, off, adj) =
  let s = Bitset.of_list n s in
  let t = if same then s else Bitset.of_list nt t in
  let m = Bitset.copy s and walk = Bitset.copy s and t0 = Bitset.copy t in
  let mt = if same then m else t0 in
  let ba = Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout in
  let got =
    outcome (fun () -> Bitset.keep_meeting s ~off:(ba off) ~adj:(ba adj) t)
  in
  let rec hit v j =
    j < off.(v + 1)
    &&
    let i = adj.(j) in
    if i < 0 || i >= nt then invalid_arg "id";
    Bitset.mem mt i || hit v (j + 1)
  in
  let want =
    outcome (fun () ->
        if Array.length off <= n then invalid_arg "off";
        let dropped = ref false in
        for v = 0 to n - 1 do
          if Bitset.mem walk v then begin
            if row_leaves off adj v then invalid_arg "row";
            if not (hit v off.(v)) then begin
              Bitset.remove m v;
              dropped := true
            end
          end
        done;
        !dropped)
  in
  got = want && Bitset.equal s m && (same || Bitset.equal t t0)

(* One draw in three meets [s] against itself. *)
let kernel_keep_meeting =
  let gen =
    let open QCheck2.Gen in
    let* n = kernel_universe and* same = frequencyl [ (1, true); (2, false) ] in
    let* nt = if same then pure n else kernel_universe in
    let* s = kernel_members n and* t = kernel_members nt in
    let+ off, adj = kernel_csr n nt in
    (n, nt, same, s, t, off, adj)
  in
  qtest ~count:1000 "kernel keep_meeting matches per-member mem"
    (gen, keep_meeting_print) keep_meeting_agrees

(* [t] spans a narrow range, at most four ids from [lo], often at a word
   edge, and the rows hold ids below it, inside it and above it, and now
   and then outside [t]'s universe: the kernel judges the ids outside
   the range without reading [t], and must still reject a bad one. *)
let kernel_keep_meeting_narrow =
  let gen =
    let open QCheck2.Gen in
    let* n = oneofl [ 1; 63; 64; 127 ] and* nt = oneofl [ 64; 127; 130; 200 ] in
    let* lo = oneof [ oneofl [ 0; 61; 62; 63; 124; 125; 126 ]; int_range 0 (nt - 1) ] in
    let* width = int_range 0 3 in
    let lo = Mono.imin lo (nt - 1) in
    let hi = Mono.imin (nt - 1) (lo + width) in
    let* t = list_size (int_range 0 4) (int_range lo hi) in
    let* s = kernel_members n in
    let* lens = list_repeat n (int_range 0 5) in
    let id =
      frequency
        [
          (4, int_range 0 (Mono.imax 0 (lo - 1)));
          (4, int_range lo hi);
          (4, int_range (Mono.imin (nt - 1) (hi + 1)) (nt - 1));
          (1, oneofl [ -1; nt; max_int ]);
        ]
    in
    let+ adj = array_repeat (List.fold_left ( + ) 0 lens) id in
    let off = Array.make (n + 1) 0 in
    List.iteri (fun h l -> off.(h + 1) <- off.(h) + l) lens;
    (n, nt, false, s, t, off, adj)
  in
  qtest ~count:1000 "kernel keep_meeting against a narrow range"
    (gen, keep_meeting_print) keep_meeting_agrees

(* Ranges start and end at the word edges, some are empty or reversed,
   and some leave the universe, which must be rejected before anything
   is added. *)
let kernel_add_range =
  let gen =
    let open QCheck2.Gen in
    let* n = kernel_universe in
    let* init = kernel_members n in
    let bound =
      frequency
        [
          (4, oneofl [ 0; 62; 63; 126; 127; n ]);
          (4, int_range 0 n);
          (1, oneofl [ -1; n + 1 ]);
        ]
    in
    let+ lo = bound and+ hi = bound in
    (n, init, lo, hi)
  in
  qtest ~count:1000 "kernel add_range matches per-member add"
    ( gen,
      fun (n, init, lo, hi) ->
        Printf.sprintf "n=%d init=%s lo=%d hi=%d" n (ints init) lo hi )
    (fun (n, init, lo, hi) ->
      let s = Bitset.of_list n init and m = Bitset.of_list n init in
      let got = outcome (fun () -> Bitset.add_range s lo hi) in
      let want =
        outcome (fun () ->
            if lo < hi && (lo < 0 || hi > n) then invalid_arg "range";
            for i = lo to hi - 1 do
              Bitset.add m i
            done)
      in
      let count = ref 0 in
      for i = 0 to n - 1 do
        if Bitset.mem s i then incr count
      done;
      got = want && Bitset.equal s m && Bitset.cardinal s = !count)

(* The bytes are filled with 0xa5 first, so a rejected write that
   stored anything shows. *)
let kernel_write_u32_le =
  let gen =
    let open QCheck2.Gen in
    let* n = kernel_universe in
    let* l = kernel_members n in
    let count = List.length (List.sort_uniq Int.compare l) in
    let* pos = frequency [ (9, int_range 0 6); (1, int_range (-3) (-1)) ] in
    let+ slack = frequency [ (8, int_range 0 6); (2, int_range (-5) (-1)) ] in
    (n, l, pos, Mono.imax 0 (Mono.imax 0 pos + (4 * count) + slack))
  in
  qtest ~count:1000 "kernel write_u32_le matches per-member mem"
    ( gen,
      fun (n, l, pos, len) ->
        Printf.sprintf "n=%d s=%s pos=%d bytes=%d" n (ints l) pos len )
    (fun (n, l, pos, len) ->
      let s = Bitset.of_list n l in
      let b = Bytes.make len '\xa5' in
      let mb = Bytes.copy b in
      let got = outcome (fun () -> Bitset.write_u32_le s b pos) in
      let want =
        outcome (fun () ->
            let count = ref 0 in
            for i = 0 to n - 1 do
              if Bitset.mem s i then incr count
            done;
            if pos < 0 || pos + (4 * !count) > len then invalid_arg "fit";
            let at = ref pos in
            for i = 0 to n - 1 do
              if Bitset.mem s i then begin
                Bytes.set_int32_le mb !at (Int32.of_int i);
                at := !at + 4
              end
            done;
            !at)
      in
      got = want && Bytes.equal b mb)

let kernel_weight =
  let gen =
    let open QCheck2.Gen in
    let* rows = kernel_universe in
    let* sel = kernel_members rows in
    let+ off, _ = kernel_csr rows 1 in
    (rows, sel, off)
  in
  qtest ~count:1000 "kernel weight matches per-member sum"
    ( gen,
      fun (rows, sel, off) ->
        Printf.sprintf "rows=%d sel=%s off=%s" rows (ints sel) (int_arr off) )
    (fun (rows, sel, off) ->
      let s = Bitset.of_list rows sel in
      let got = outcome (fun () -> Bitset.weight s ~off) in
      let want =
        outcome (fun () ->
            if Array.length off <= rows then invalid_arg "off";
            let total = ref 0 in
            for h = 0 to rows - 1 do
              if Bitset.mem s h then total := !total + off.(h + 1) - off.(h)
            done;
            !total)
      in
      got = want)

(* [write_selected] replays as a scan that stores each id and moves on
   past a selected one, stopping at the counted end.  Ids, keys, ranges,
   counts and positions are now and then invalid (an id or a key is a
   u32, so an invalid one is at or past its universe); the bytes start
   as 0xa5, so every store, kept or overwritten, rejected or not,
   shows. *)
let u32_id n =
  let open QCheck2.Gen in
  let outside = oneofl [ n; n + 1; 0xFFFF_FFFF ] in
  if n = 0 then outside
  else frequency [ (20, int_range 0 (n - 1)); (1, outside) ]

let entries ids keys =
  let b = Bytes.create (8 * Array.length ids) in
  Array.iteri
    (fun j id ->
      Bytes.set_int32_le b (8 * j) (Int32.of_int id);
      Bytes.set_int32_le b ((8 * j) + 4) (Int32.of_int keys.(j)))
    ids;
  b

let kernel_write_selected =
  let gen =
    let open QCheck2.Gen in
    let* np = oneofl [ 0; 1; 5; 63; 64 ] and* nk = kernel_universe in
    let* ids = array_repeat np (u32_id np) and* keys = array_repeat np (u32_id nk) in
    let* sel = kernel_members nk in
    let bound = frequency [ (9, int_range 0 np); (1, oneofl [ -1; np + 1 ]) ] in
    let* lo = bound and* hi = bound in
    let s = Bitset.of_list nk sel in
    let exact = ref 0 in
    for j = Mono.imax 0 lo to Mono.imin np hi - 1 do
      if keys.(j) < nk && Bitset.mem s keys.(j) then incr exact
    done;
    let* count = frequency [ (8, pure !exact); (1, oneofl [ !exact - 1; !exact + 1 ]) ] in
    let* pos = frequency [ (9, int_range 0 6); (1, int_range (-3) (-1)) ] in
    let+ slack = frequency [ (8, int_range 0 6); (2, int_range (-5) (-1)) ] in
    ( nk, sel, ids, keys, lo, hi, count, pos,
      Mono.imax 0 (Mono.imax 0 pos + (4 * count) + slack) )
  in
  qtest ~count:2000 "kernel write_selected matches a per-entry scan"
    ( gen,
      fun (nk, sel, ids, keys, lo, hi, count, pos, len) ->
        Printf.sprintf "nk=%d sel=%s ids=%s keys=%s lo=%d hi=%d count=%d pos=%d bytes=%d"
          nk (ints sel) (int_arr ids) (int_arr keys) lo hi count pos len )
    (fun (nk, sel, ids, keys, lo, hi, count, pos, len) ->
      let s = Bitset.of_list nk sel and np = Array.length ids in
      let b = Bytes.make len '\xa5' in
      let mb = Bytes.copy b in
      let got =
        outcome (fun () ->
            Bitset.write_selected s ~pairs:(entries ids keys) ~lo ~hi ~count b pos)
      in
      let want =
        outcome (fun () ->
            if count < 0 || pos < 0 || pos + (4 * count) > len then invalid_arg "fit";
            if lo < hi && (lo < 0 || hi > np) then invalid_arg "range";
            let stop = pos + (4 * count) in
            let p = ref pos and j = ref lo in
            while !j < hi && !p < stop do
              if ids.(!j) >= np || keys.(!j) >= nk then invalid_arg "id";
              Bytes.set_int32_le mb !p (Int32.of_int ids.(!j));
              if Bitset.mem s keys.(!j) then p := !p + 4;
              incr j
            done;
            if !p <> stop then invalid_arg "count";
            !p)
      in
      got = want && Bytes.equal b mb)

(* An id past the entries' universe and a key past the set's are each
   rejected, naming the entry, and a count the range does not hold is
   rejected too. *)
let write_selected_rejects () =
  let sel = Bitset.of_list 4 [ 0; 1; 2; 3 ] and b = Bytes.create 64 in
  let write ids keys ~hi ~count () =
    ignore
      (Bitset.write_selected sel ~pairs:(entries ids keys) ~lo:0 ~hi ~count b 0
        : int)
  in
  Alcotest.check_raises "key outside the set"
    (Invalid_argument "Bitset.write_selected: the key of entry 2 is outside [0,4)")
    (write [| 0; 1; 2 |] [| 0; 1; 5 |] ~hi:3 ~count:3);
  Alcotest.check_raises "id outside the entries"
    (Invalid_argument "Bitset.write_selected: the id of entry 1 is outside [0,2)")
    (write [| 0; 7 |] [| 0; 1 |] ~hi:2 ~count:2);
  Alcotest.check_raises "the top u32 id"
    (Invalid_argument "Bitset.write_selected: the id of entry 0 is outside [0,2)")
    (write [| 0xFFFF_FFFF; 1 |] [| 0; 1 |] ~hi:2 ~count:2);
  Alcotest.check_raises "range past the entries"
    (Invalid_argument "Bitset.write_selected: the range leaves its array")
    (write [| 0; 1 |] [| 0; 1 |] ~hi:3 ~count:2);
  Alcotest.check_raises "count above the selected"
    (Invalid_argument "Bitset.write_selected: fewer selected ids than the count")
    (write [| 0; 1 |] [| 0; 1 |] ~hi:2 ~count:3);
  Alcotest.check_raises "bytes too short"
    (Invalid_argument "Bitset.write_selected: the ids do not fit")
    (write [| 0; 1 |] [| 0; 1 |] ~hi:2 ~count:17)

let kernel_props =
  [
    kernel_add_slice;
    kernel_add_range;
    kernel_union_rows;
    kernel_keep_meeting;
    kernel_keep_meeting_narrow;
    kernel_write_u32_le;
    kernel_weight;
    kernel_write_selected;
  ]

(* ------------------------------------------------------------------ *)
(* Digraph *)

let digraph_basics () =
  let g = Digraph.make ~n:4 ~labels:[| 1; 0; 2; 0 |] [ (0, 1); (1, 2); (0, 1); (3, 3) ] in
  Alcotest.(check int) "n" 4 (Digraph.n g);
  Alcotest.(check int) "m dedups" 3 (Digraph.m g);
  Alcotest.(check int) "size" 7 (Digraph.size g);
  Alcotest.(check bool) "mem (0,1)" true (Digraph.mem_edge g 0 1);
  Alcotest.(check bool) "mem self" true (Digraph.mem_edge g 3 3);
  Alcotest.(check bool) "not mem (1,0)" false (Digraph.mem_edge g 1 0);
  Alcotest.(check int) "label" 2 (Digraph.label g 2);
  Alcotest.(check int) "label_count" 3 (Digraph.label_count g);
  Alcotest.(check int) "out_degree" 1 (Digraph.out_degree g 0);
  Alcotest.(check int) "in_degree" 1 (Digraph.in_degree g 2);
  Digraph.validate g

let digraph_errors () =
  Alcotest.check_raises "bad edge"
    (Invalid_argument "Digraph.make: edge (5,0) out of range [0,3)") (fun () ->
      ignore (Digraph.make ~n:3 [ (5, 0) ]));
  Alcotest.check_raises "bad labels"
    (Invalid_argument "Digraph.make: label array length mismatch") (fun () ->
      ignore (Digraph.make ~n:3 ~labels:[| 0 |] []));
  Alcotest.check_raises "negative n"
    (Invalid_argument "Digraph.make: negative node count") (fun () ->
      ignore (Digraph.make ~n:(-1) []))

let digraph_edit () =
  let g = Digraph.make ~n:3 [ (0, 1) ] in
  let g2 = Digraph.add_edges g [ (1, 2); (0, 1) ] in
  Alcotest.(check int) "added dedup" 2 (Digraph.m g2);
  let g3 = Digraph.remove_edges g2 [ (0, 1); (2, 0) ] in
  Alcotest.(check int) "removed, absent ignored" 1 (Digraph.m g3);
  Alcotest.(check bool) "right edge left" true (Digraph.mem_edge g3 1 2);
  Digraph.validate g3

let digraph_induced () =
  let g = Digraph.make ~n:5 ~labels:[| 0; 1; 2; 3; 4 |]
      [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ]
  in
  let sub, mapping = Digraph.induced g [| 1; 2; 3 |] in
  Alcotest.(check int) "sub n" 3 (Digraph.n sub);
  Alcotest.(check int) "sub m" 2 (Digraph.m sub);
  Alcotest.(check bool) "1->2 kept" true (Digraph.mem_edge sub 0 1);
  Alcotest.(check bool) "2->3 kept" true (Digraph.mem_edge sub 1 2);
  Alcotest.(check int) "labels follow" 2 (Digraph.label sub 1);
  Alcotest.(check (array int)) "mapping" [| 1; 2; 3 |] mapping;
  Digraph.validate sub

(* The quotient by definition: map both ends of every edge, drop the
   equal-end pairs when asked, and let [make] sort and deduplicate. *)
let naive_quotient ?labels ~self_loops ~class_of ~k g =
  Testutil.edges_list g
  |> List.map (fun (u, v) -> (class_of.(u), class_of.(v)))
  |> List.filter (fun (a, b) -> self_loops || a <> b)
  |> Digraph.make ~n:k ?labels

let digraph_quotient () =
  (* Nodes 0, 1 and 3 form class 2, node 2 is class 0; classes 1 and 3
     are empty.  Three edges land on (2, 2), two on (2, 0). *)
  let g =
    Digraph.make ~n:4 [ (0, 1); (1, 0); (0, 2); (1, 2); (2, 2); (3, 0) ]
  in
  let class_of = [| 2; 2; 0; 2 |] and labels = [| 5; 0; 1; 0 |] in
  let q = Digraph.quotient ~labels ~self_loops:true ~class_of ~k:4 g in
  Alcotest.(check int) "one node per class" 4 (Digraph.n q);
  Alcotest.(check (list (pair int int)))
    "distinct pairs, loops kept" [ (0, 0); (2, 0); (2, 2) ]
    (Testutil.edges_list q);
  Alcotest.(check int) "labels carried" 5 (Digraph.label q 0);
  let q = Digraph.quotient ~self_loops:false ~class_of ~k:4 g in
  Alcotest.(check (list (pair int int)))
    "loops dropped" [ (2, 0) ] (Testutil.edges_list q);
  Alcotest.(check int) "labels default to 0" 1 (Digraph.label_count q);
  Digraph.validate q;
  let e = Digraph.quotient ~self_loops:true ~class_of:[||] ~k:2 Digraph.empty in
  Alcotest.(check int) "empty graph, two classes" 2 (Digraph.n e);
  Alcotest.(check int) "no edges" 0 (Digraph.m e)

let digraph_quotient_errors () =
  let g = Digraph.make ~n:3 [ (0, 1); (1, 2) ] in
  let quotient ?labels class_of =
    ignore (Digraph.quotient ?labels ~self_loops:true ~class_of ~k:2 g)
  in
  Alcotest.check_raises "class map too short"
    (Invalid_argument "Digraph.quotient: class map length mismatch")
    (fun () -> quotient [| 0; 1 |]);
  Alcotest.check_raises "class map too long"
    (Invalid_argument "Digraph.quotient: class map length mismatch")
    (fun () -> quotient [| 0; 1; 1; 0 |]);
  Alcotest.check_raises "class k"
    (Invalid_argument "Digraph.quotient: class 2 out of range [0,2)")
    (fun () -> quotient [| 0; 1; 2 |]);
  Alcotest.check_raises "negative class"
    (Invalid_argument "Digraph.quotient: class -1 out of range [0,2)")
    (fun () -> quotient [| 0; -1; 1 |]);
  Alcotest.check_raises "labels of the wrong length"
    (Invalid_argument "Digraph.quotient: label array length mismatch")
    (fun () -> quotient ~labels:[| 0; 0; 0 |] [| 0; 1; 1 |])

(* Graphs with self-loops (n = 0 included); a class map onto [0, used)
   that may leave classes empty and sends many edges to one pair; k up to
   three above [used]; labels on the classes, or none. *)
let quotient_case_gen =
  let open QCheck2.Gen in
  let* n = int_range 0 12 in
  let node = int_range 0 (max 0 (n - 1)) in
  let* edges =
    if n = 0 then pure [] else list_size (int_range 0 (3 * n)) (pair node node)
  in
  let* loops = if n = 0 then pure [] else list_size (int_range 0 3) node in
  let* used = if n = 0 then pure 0 else int_range 1 4 in
  let* class_of = array_size (pure n) (int_range 0 (max 0 (used - 1))) in
  let* k = map (( + ) used) (int_range 0 3) in
  let* labels = option (array_size (pure k) (int_range 0 3)) in
  let* self_loops = bool in
  let g = Digraph.make ~n (List.map (fun v -> (v, v)) loops @ edges) in
  pure (g, class_of, k, labels, self_loops)

let quotient_case_print (g, class_of, k, labels, self_loops) =
  let ints a = String.concat ";" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "%s\nclass_of [|%s|] k %d labels %s self_loops %b"
    (Testutil.digraph_print g) (ints class_of) k
    (match labels with Some l -> "[|" ^ ints l ^ "|]" | None -> "none")
    self_loops

let arb_g = Testutil.arbitrary_digraph ()

let digraph_props =
  [
    qtest "reverse is involutive" arb_g (fun g ->
        Digraph.equal g (Digraph.reverse (Digraph.reverse g)));
    qtest "reverse flips edges" arb_g (fun g ->
        let r = Digraph.reverse g in
        List.for_all (fun (u, v) -> Digraph.mem_edge r v u) (Testutil.edges_list g)
        && Digraph.m r = Digraph.m g);
    qtest "validate accepts all built graphs" arb_g (fun g ->
        Digraph.validate g;
        true);
    qtest ~count:500 "quotient equals the naive edge-list quotient"
      (quotient_case_gen, quotient_case_print)
      (fun (g, class_of, k, labels, self_loops) ->
        let q = Digraph.quotient ?labels ~self_loops ~class_of ~k g in
        Digraph.validate q;
        Digraph.equal q (naive_quotient ?labels ~self_loops ~class_of ~k g));
    qtest "edges round-trips through make" arb_g (fun g ->
        Digraph.equal g
          (Digraph.make ~n:(Digraph.n g) ~labels:(Digraph.labels g)
             (Testutil.edges_list g)));
    qtest "edit equals remove-then-add"
      (Testutil.arbitrary_graph_updates ())
      (fun (g, updates) ->
        let add =
          List.filter_map
            (function Edge_update.Insert (u, v) -> Some (u, v) | _ -> None)
            updates
        in
        let remove =
          List.filter_map
            (function Edge_update.Delete (u, v) -> Some (u, v) | _ -> None)
            updates
        in
        (* an edge in both lists must end up present, matching edit's spec *)
        let remove =
          List.filter (fun e -> not (List.mem e add)) remove
        in
        Digraph.equal
          (Digraph.edit g ~add ~remove)
          (Digraph.add_edges (Digraph.remove_edges g remove) add));
    qtest "add then remove restores" arb_g (fun g ->
        let n = Digraph.n g in
        if n = 0 then true
        else begin
          let extra =
            List.filter
              (fun (u, v) -> not (Digraph.mem_edge g u v))
              [ (0, n - 1); (n - 1, 0) ]
            |> List.sort_uniq compare
          in
          let g2 = Digraph.remove_edges (Digraph.add_edges g extra) extra in
          Digraph.equal g g2
        end);
    qtest "memory_bytes positive and monotone in edges" arb_g (fun g ->
        Digraph.memory_bytes g >= 0
        &&
        let n = Digraph.n g in
        n = 0
        ||
        let denser =
          Digraph.add_edges g
            (List.init n (fun i -> (i, (i + 1) mod n)))
        in
        Digraph.memory_bytes denser >= Digraph.memory_bytes g);
  ]

(* ------------------------------------------------------------------ *)
(* Traversal *)

let line_graph n = Digraph.make ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let traversal_unit () =
  let g = line_graph 5 in
  Alcotest.(check bool) "reaches forward" true (Traversal.bfs_reaches g 0 4);
  Alcotest.(check bool) "not backward" false (Traversal.bfs_reaches g 4 0);
  Alcotest.(check bool) "reflexive" true (Traversal.bfs_reaches g 2 2);
  Alcotest.(check bool) "nonempty self needs cycle" false
    (Traversal.bfs_reaches_nonempty g 2 2);
  let cyc = Digraph.make ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check bool) "nonempty self via cycle" true
    (Traversal.bfs_reaches_nonempty cyc 1 1);
  Alcotest.(check (option int)) "distance" (Some 3) (Traversal.distance g 0 3);
  Alcotest.(check (option int)) "distance self" (Some 0) (Traversal.distance g 1 1);
  Alcotest.(check (option int)) "unreachable" None (Traversal.distance g 3 0)

let traversal_bounded () =
  let g = line_graph 6 in
  let anc ?depth vs = Bitset.to_list (Testutil.ancestors_of ?depth g vs) in
  Alcotest.(check (list int)) "within 2" [ 3; 4 ] (anc ~depth:2 [ 5 ]);
  Alcotest.(check (list int)) "depth 0 empty" [] (anc ~depth:0 [ 5 ]);
  Alcotest.(check (list int)) "unbounded" [ 0; 1; 2; 3; 4 ] (anc [ 5 ]);
  Alcotest.(check (list int)) "two sources, one level" [ 0; 1; 3 ]
    (anc ~depth:1 [ 1; 2; 4 ]);
  Alcotest.(check (list int)) "as deep as the farther source" [ 0; 1; 2 ]
    (anc ~depth:2 [ 2; 3 ]);
  Alcotest.(check (list int)) "no sources" [] (anc []);
  let q = Traversal.queue 6 and into = Bitset.create 6 in
  Alcotest.check_raises "negative depth"
    (Invalid_argument "Traversal.ancestors: negative depth") (fun () ->
      Traversal.ancestors ~depth:(-1) g q (Bitset.of_list 6 [ 5 ]) ~into);
  Alcotest.check_raises "short queue"
    (Invalid_argument "Traversal.ancestors: queue too short") (fun () ->
      Traversal.ancestors g (Traversal.queue 5) (Bitset.of_list 6 [ 5 ]) ~into);
  Alcotest.check_raises "other universe"
    (Invalid_argument "Traversal.ancestors: set over another universe")
    (fun () -> Traversal.ancestors g q (Bitset.of_list 7 [ 5 ]) ~into);
  Alcotest.check_raises "into is sources"
    (Invalid_argument "Traversal.ancestors: into is sources") (fun () ->
      Traversal.ancestors g q into ~into)

(* A path has to leave a source for the source to be marked: a source
   with no cycle through it is not its own ancestor, one with a
   self-loop is, at any depth of at least 1. *)
let traversal_ancestors_nonempty () =
  let chain = Digraph.make ~n:3 [ (0, 1); (1, 2) ] in
  let anc ?depth g vs = Bitset.to_list (Testutil.ancestors_of ?depth g vs) in
  Alcotest.(check (list int)) "no cycle, not marked" [ 0; 1 ] (anc chain [ 2 ]);
  Alcotest.(check (list int)) "an edge into another source" [ 0; 1 ]
    (anc chain [ 1; 2 ]);
  let loop = Digraph.make ~n:3 [ (0, 1); (1, 2); (2, 2) ] in
  Alcotest.(check (list int)) "self-loop, depth 1" [ 1; 2 ]
    (anc ~depth:1 loop [ 2 ]);
  Alcotest.(check (list int)) "self-loop, unbounded" [ 0; 1; 2 ]
    (anc loop [ 2 ]);
  let cyc = Digraph.make ~n:4 [ (0, 1); (1, 2); (2, 0); (3, 0) ] in
  Alcotest.(check (list int)) "3-cycle, depth 2 misses the source" [ 1; 2; 3 ]
    (anc ~depth:2 cyc [ 0 ]);
  Alcotest.(check (list int)) "3-cycle, depth 3 finds it" [ 0; 1; 2; 3 ]
    (anc ~depth:3 cyc [ 0 ])

let traversal_budgeted () =
  let g = line_graph 50 in
  Alcotest.(check (option bool)) "found within budget" (Some true)
    (Traversal.budgeted_reaches g 0 3 ~budget:10);
  Alcotest.(check (option bool)) "settled unreachable" (Some false)
    (Traversal.budgeted_reaches g 49 0 ~budget:1000);
  Alcotest.(check (option bool)) "budget exhausted" None
    (Traversal.budgeted_reaches g 0 49 ~budget:3)

let pair_gen =
  let open QCheck2.Gen in
  let* g = Testutil.digraph_gen () in
  let n = Digraph.n g in
  let* u = int_range 0 (n - 1) in
  let* v = int_range 0 (n - 1) in
  pure (g, u, v)

let arb_pair =
  (pair_gen, fun (g, u, v) -> Format.asprintf "%a@.(%d,%d)" Digraph.pp g u v)

let traversal_props =
  [
    qtest "bibfs agrees with bfs" arb_pair (fun (g, u, v) ->
        Traversal.bibfs_reaches g u v = Traversal.bfs_reaches g u v);
    qtest "dfs agrees with bfs" arb_pair (fun (g, u, v) ->
        Traversal.dfs_reaches g u v = Traversal.bfs_reaches g u v);
    qtest "descendants = nonempty reach" arb_pair (fun (g, u, v) ->
        Bitset.mem (Traversal.descendants g u) v
        = Traversal.bfs_reaches_nonempty g u v);
    qtest "ancestors mirror descendants" arb_pair (fun (g, u, v) ->
        Bitset.mem (Testutil.ancestors_of g [ v ]) u
        = Bitset.mem (Traversal.descendants g u) v);
    qtest "distance consistent with reach" arb_pair (fun (g, u, v) ->
        (Traversal.distance g u v <> None) = Traversal.bfs_reaches g u v);
    (* The per-node oracle of the pattern tests and the backward search
       from [v] cut at the same depth both follow distances. *)
    qtest "bounded_descendants matches distance" arb_pair (fun (g, u, v) ->
        let k = 3 in
        let within = Bitset.mem (Testutil.bounded_descendants g u k) v in
        within = Bitset.mem (Testutil.ancestors_of ~depth:k g [ v ]) u
        && within
           =
           match Traversal.distance g u v with
           | Some d when d >= 1 && d <= k -> true
           | Some _ | None ->
               (* self within k via a cycle *)
               u = v
               &&
               (let cyc = ref false in
                Digraph.iter_succ g u (fun w ->
                    match Traversal.distance g w u with
                    | Some d when d + 1 <= k -> cyc := true
                    | _ -> ());
                !cyc));
    qtest "budgeted settled answers agree with bfs" arb_pair (fun (g, u, v) ->
        match Traversal.budgeted_reaches g u v ~budget:1000 with
        | Some r -> r = Traversal.bfs_reaches_nonempty g u v
        | None -> true);
    qtest "bfs_order covers exactly reachable set" arb_pair (fun (g, u, _) ->
        let order = Traversal.bfs_order g [ u ] in
        let reach = Traversal.descendants g u in
        Bitset.add reach u;
        List.sort compare order = Bitset.to_list reach
        && List.length (List.sort_uniq compare order) = List.length order);
  ]

(* ------------------------------------------------------------------ *)
(* SCC and ranks *)

let scc_unit () =
  let g = Digraph.make ~n:6 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3); (4, 5) ] in
  let scc = Scc.compute g in
  Alcotest.(check int) "three components" 3 scc.Scc.count;
  Alcotest.(check bool) "0,1,2 together" true (Scc.same_scc scc 0 2);
  Alcotest.(check bool) "3,4 together" true (Scc.same_scc scc 3 4);
  Alcotest.(check bool) "5 apart" false (Scc.same_scc scc 4 5);
  Alcotest.(check bool) "012 nontrivial" true scc.Scc.nontrivial.(scc.Scc.comp.(0));
  Alcotest.(check bool) "5 trivial" false scc.Scc.nontrivial.(scc.Scc.comp.(5));
  let cond = Scc.condensation g scc in
  Alcotest.(check int) "condensation nodes" 3 (Digraph.n cond);
  Alcotest.(check int) "condensation edges" 2 (Digraph.m cond);
  Alcotest.(check (option bool)) "condensation acyclic" (Some true)
    (Option.map (fun _ -> true) (Topo_rank.topological_order cond))

let scc_self_loop () =
  let g = Digraph.make ~n:2 [ (0, 0); (0, 1) ] in
  let scc = Scc.compute g in
  Alcotest.(check bool) "self-loop nontrivial" true
    scc.Scc.nontrivial.(scc.Scc.comp.(0));
  Alcotest.(check bool) "plain node trivial" false
    scc.Scc.nontrivial.(scc.Scc.comp.(1));
  let single edges = (Scc.compute (Digraph.make ~n:1 edges)).Scc.nontrivial in
  Alcotest.(check (array bool)) "self-loop singleton" [| true |] (single [ (0, 0) ]);
  Alcotest.(check (array bool)) "plain singleton" [| false |] (single [])

(* Tarjan keeps its DFS in heap arrays: a 200,000-node path (n components)
   and cycle (one) go through under a stack limit that a recursive DFS of
   that depth overflows. *)
let scc_deep () =
  let n = 200_000 in
  let path = Digraph.make ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let cycle = Digraph.add_edges path [ (n - 1, 0) ] in
  let old = Gc.get () in
  let path_scc, cycle_scc =
    Fun.protect
      ~finally:(fun () -> Gc.set old)
      (fun () ->
        Gc.set { old with Gc.stack_limit = 65_536 };
        (Scc.compute path, Scc.compute cycle))
  in
  Alcotest.(check int) "path: n components" n path_scc.Scc.count;
  Alcotest.(check bool) "path: all trivial" false
    (Array.exists Fun.id path_scc.Scc.nontrivial);
  Alcotest.(check int) "cycle: one component" 1 cycle_scc.Scc.count;
  Alcotest.(check bool) "cycle: nontrivial" true cycle_scc.Scc.nontrivial.(0)

(* SCC classes are exactly the mutual-reachability classes, checked on all
   pairs by BFS. *)
let scc_matches_bfs g =
  let scc = Scc.compute g in
  let n = Digraph.n g in
  let reach = Array.init n (fun u -> Array.init n (Traversal.bfs_reaches g u)) in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if Scc.same_scc scc u v <> (reach.(u).(v) && reach.(v).(u)) then
        ok := false
    done
  done;
  !ok

(* Ascending SCC id is a reverse topological order of the condensation. *)
let scc_ids_reverse_topological g =
  let scc = Scc.compute g in
  let ok = ref true in
  Digraph.iter_edges (Scc.condensation g scc) (fun a b -> if a <= b then ok := false);
  !ok

let scc_props =
  [
    qtest "SCCs and order on fan/chain/self-loop shapes"
      Testutil.arbitrary_condensation_shapes (fun g ->
        scc_matches_bfs g && scc_ids_reverse_topological g);
    qtest "members partition the nodes" arb_g (fun g ->
        let scc = Scc.compute g in
        let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 scc.Scc.members in
        total = Digraph.n g
        && Array.for_all
             (fun ms -> Array.for_all (fun v -> scc.Scc.comp.(v) = scc.Scc.comp.(ms.(0))) ms)
             scc.Scc.members);
    qtest "same scc iff mutually reachable" arb_g scc_matches_bfs;
    qtest "scc ids reverse topological" arb_g scc_ids_reverse_topological;
    qtest "condensation is acyclic" arb_g (fun g ->
        let scc = Scc.compute g in
        Topo_rank.topological_order (Scc.condensation g scc) <> None);
    qtest "nontrivial iff nonempty self path" arb_g (fun g ->
        let scc = Scc.compute g in
        let ok = ref true in
        for v = 0 to Digraph.n g - 1 do
          if
            scc.Scc.nontrivial.(scc.Scc.comp.(v))
            <> Traversal.bfs_reaches_nonempty g v v
          then ok := false
        done;
        !ok);
  ]

let rank_props =
  [
    qtest "reach rank respects edges" arb_g (fun g ->
        let scc = Scc.compute g in
        let r = Topo_rank.reach_ranks g scc in
        let ok = ref true in
        Digraph.iter_edges g (fun u v ->
            if Scc.same_scc scc u v then begin
              if r.(u) <> r.(v) then ok := false
            end
            else if r.(u) <= r.(v) then ok := false);
        !ok);
    qtest "sinks have reach rank 0" arb_g (fun g ->
        let scc = Scc.compute g in
        let r = Topo_rank.reach_ranks g scc in
        let cond = Scc.condensation g scc in
        let ok = ref true in
        for v = 0 to Digraph.n g - 1 do
          if Digraph.out_degree cond scc.Scc.comp.(v) = 0 && r.(v) <> 0 then
            ok := false
        done;
        !ok);
    qtest "well founded iff reaches no cycle" arb_g (fun g ->
        let scc = Scc.compute g in
        let wf = Topo_rank.well_founded g scc in
        let ok = ref true in
        for v = 0 to Digraph.n g - 1 do
          let reaches_cycle = ref scc.Scc.nontrivial.(scc.Scc.comp.(v)) in
          Bitset.iter
            (fun w ->
              if scc.Scc.nontrivial.(scc.Scc.comp.(w)) then reaches_cycle := true)
            (Traversal.descendants g v);
          if wf.(v) = !reaches_cycle then ok := false
        done;
        !ok);
    qtest "bisim rank: Lemma 9 necessary condition" arb_g (fun g ->
        let scc = Scc.compute g in
        let rb = Topo_rank.bisim_ranks g scc in
        let classes = Bisimulation.max_bisimulation g in
        let ok = ref true in
        for u = 0 to Digraph.n g - 1 do
          for v = 0 to Digraph.n g - 1 do
            if classes.(u) = classes.(v) && rb.(u) <> rb.(v) then ok := false
          done
        done;
        !ok);
    qtest "bisim rank of childless nodes is 0" arb_g (fun g ->
        let scc = Scc.compute g in
        let rb = Topo_rank.bisim_ranks g scc in
        let ok = ref true in
        for v = 0 to Digraph.n g - 1 do
          if Digraph.out_degree g v = 0 && rb.(v) <> 0 then ok := false
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Transitive closure / reduction *)

let transitive_props =
  [
    qtest "descendant_sets match traversal" arb_g (fun g ->
        let desc = Transitive.descendant_sets g in
        let ok = ref true in
        for v = 0 to Digraph.n g - 1 do
          if not (Bitset.equal desc.(v) (Traversal.descendants g v)) then
            ok := false
        done;
        !ok);
    qtest "ancestor_sets match traversal" arb_g (fun g ->
        let anc = Transitive.descendant_sets (Digraph.reverse g) in
        let ok = ref true in
        for v = 0 to Digraph.n g - 1 do
          if not (Bitset.equal anc.(v) (Testutil.ancestors_of g [ v ])) then
            ok := false
        done;
        !ok);
    qtest "aho reduction preserves reachability" arb_pair (fun (g, u, v) ->
        let red = Transitive.aho_reduction g in
        Traversal.bfs_reaches red u v = Traversal.bfs_reaches g u v);
    qtest "aho reduction never larger" arb_g (fun g ->
        Digraph.m (Transitive.aho_reduction g) <= Digraph.m g
        || Digraph.m g = 0);
    qtest "closure_matrix equals nonempty reach" arb_pair (fun (g, u, v) ->
        Transitive.closure_matrix g u v = Traversal.bfs_reaches_nonempty g u v);
  ]

(* Brute-force transitive reduction: (u,v) stays iff no other successor of
   u reaches v, each successor's reach set found by its own BFS. *)
let brute_reduction dag =
  let edges = ref [] in
  for u = 0 to Digraph.n dag - 1 do
    let succ = Array.of_list (Digraph.fold_succ dag u (fun acc v -> v :: acc) []) in
    let reach = Array.map (Traversal.descendants dag) succ in
    Array.iteri
      (fun i v ->
        let covered = ref false in
        Array.iteri (fun j r -> if j <> i && Bitset.mem r v then covered := true) reach;
        if not !covered then edges := (u, v) :: !edges)
      succ
  done;
  Digraph.make ~n:(Digraph.n dag) ~labels:(Digraph.labels dag) !edges

(* Random DAGs, half of them with a hub: the highest node id points at
   every other node (random_dag edges go from higher to lower ids), so its
   out-degree is at least 1,000 and most of its edges are redundant. *)
let arb_hub_dag =
  ( (let open QCheck2.Gen in
     let* seed = int_range 0 99999 in
     let* hub = bool in
     let rng = Random.State.make [| seed |] in
     let n = if hub then 1001 + Random.State.int rng 200 else 1 + Random.State.int rng 12 in
     let dag = Generators.random_dag rng ~n ~m:(Random.State.int rng (2 * n + 1)) in
     pure
       (if hub then Digraph.add_edges dag (List.init (n - 1) (fun v -> (n - 1, v)))
        else dag)),
    Testutil.digraph_print )

let reduction_matches_brute_force dag =
  let expected = brute_reduction dag in
  List.for_all
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Digraph.equal expected (Transitive.reduction_dag ~pool dag)))
    [ 1; 2; 4 ]

let reduction_dag_props =
  let arb_dag =
    ( (let open QCheck2.Gen in
       let* seed = int_range 0 99999 in
       let rng = Random.State.make [| seed |] in
       let* n = int_range 1 12 in
       let* m = int_range 0 (2 * n) in
       pure (Generators.random_dag rng ~n ~m)),
      Testutil.digraph_print )
  in
  [
    qtest ~count:100 "reduction equals brute force at 1, 2, 4 domains"
      arb_hub_dag reduction_matches_brute_force;
    qtest "reduction preserves reachability" arb_dag (fun dag ->
        let red = Transitive.reduction_dag dag in
        let ok = ref true in
        for u = 0 to Digraph.n dag - 1 do
          for v = 0 to Digraph.n dag - 1 do
            if Traversal.bfs_reaches red u v <> Traversal.bfs_reaches dag u v
            then ok := false
          done
        done;
        !ok);
    qtest "reduction is minimal" arb_dag (fun dag ->
        (* Removing any kept edge must lose reachability. *)
        let red = Transitive.reduction_dag dag in
        List.for_all
          (fun (u, v) ->
            let without = Digraph.remove_edges red [ (u, v) ] in
            not (Traversal.bfs_reaches without u v))
          (Testutil.edges_list red));
    qtest "reduction is idempotent" arb_dag (fun dag ->
        let r1 = Transitive.reduction_dag dag in
        Digraph.equal r1 (Transitive.reduction_dag r1));
    qtest "rejects cyclic input" arb_g (fun g ->
        let scc = Scc.compute g in
        let cyclic = Array.exists (fun b -> b) scc.Scc.nontrivial in
        if not cyclic then true
        else
          match Transitive.reduction_dag g with
          | exception Invalid_argument _ -> true
          | _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Generators *)

let generators_unit () =
  let rng = Random.State.make [| 1 |] in
  let g = Generators.erdos_renyi rng ~n:50 ~m:100 in
  Alcotest.(check int) "er nodes" 50 (Digraph.n g);
  Alcotest.(check int) "er edges" 100 (Digraph.m g);
  Digraph.validate g;
  let dag = Generators.random_dag rng ~n:30 ~m:60 in
  Alcotest.(check bool) "dag acyclic" true
    (Topo_rank.topological_order dag <> None);
  let pa = Generators.preferential_attachment rng ~n:40 ~out_degree:3 ~reciprocity:0.3 in
  Digraph.validate pa;
  Alcotest.(check int) "pa nodes" 40 (Digraph.n pa);
  let web = Generators.hierarchical_web rng ~hosts:4 ~pages_per_host:10 ~cross_links:20 in
  Alcotest.(check int) "web nodes" 40 (Digraph.n web);
  let tree = Generators.tree_with_shortcuts rng ~n:25 ~extra:10 in
  Digraph.validate tree;
  let labeled = Generators.with_random_labels rng g ~label_count:5 in
  Alcotest.(check bool) "labels in range" true
    (Array.for_all (fun l -> l >= 0 && l < 5) (Digraph.labels labeled));
  let zipf = Generators.with_zipf_labels rng g ~label_count:7 in
  Alcotest.(check bool) "zipf labels in range" true
    (Array.for_all (fun l -> l >= 0 && l < 7) (Digraph.labels zipf))

let generators_deterministic () =
  let g1 = Generators.erdos_renyi (Random.State.make [| 9 |]) ~n:20 ~m:40 in
  let g2 = Generators.erdos_renyi (Random.State.make [| 9 |]) ~n:20 ~m:40 in
  Alcotest.(check bool) "same seed same graph" true (Digraph.equal g1 g2)

let generators_edge_cases () =
  let rng = Random.State.make [| 2 |] in
  Alcotest.(check int) "er n=0" 0 (Digraph.n (Generators.erdos_renyi rng ~n:0 ~m:5));
  Alcotest.(check int) "er n=1 no self loops" 0
    (Digraph.m (Generators.erdos_renyi rng ~n:1 ~m:5));
  Alcotest.(check int) "er clamps m" (3 * 2)
    (Digraph.m (Generators.erdos_renyi rng ~n:3 ~m:1000))

(* ------------------------------------------------------------------ *)
(* Graph statistics *)

let stats_unit () =
  let g = Digraph.make ~n:6 ~labels:[| 0; 0; 1; 1; 2; 2 |]
      [ (0, 1); (1, 0); (1, 2); (2, 3); (4, 4) ]
  in
  let s = Graph_stats.compute g in
  Alcotest.(check int) "nodes" 6 s.Graph_stats.nodes;
  Alcotest.(check int) "edges" 5 s.Graph_stats.edges;
  Alcotest.(check int) "labels" 3 s.Graph_stats.labels;
  Alcotest.(check int) "self loops" 1 s.Graph_stats.self_loops;
  Alcotest.(check bool) "reciprocity 2/5" true
    (abs_float (s.Graph_stats.reciprocity -. 0.4) < 1e-9);
  Alcotest.(check int) "largest scc" 2 s.Graph_stats.largest_scc;
  Alcotest.(check int) "wcc: {0..3}, {4}, {5}" 3 s.Graph_stats.wcc_count;
  Alcotest.(check int) "sinks: 3, 5" 2 s.Graph_stats.sinks;
  Alcotest.(check int) "sources: 0/1 no... 5 and none" 1 s.Graph_stats.sources;
  Alcotest.(check int) "diameter along 0-1-2-3" 3 s.Graph_stats.approx_diameter

let stats_props =
  [
    qtest "stats are internally consistent" arb_g (fun g ->
        let s = Graph_stats.compute g in
        s.Graph_stats.nodes = Digraph.n g
        && s.Graph_stats.edges = Digraph.m g
        && s.Graph_stats.scc_count <= max 1 s.Graph_stats.nodes
        && s.Graph_stats.wcc_count <= s.Graph_stats.scc_count + 1
        && s.Graph_stats.largest_scc <= s.Graph_stats.nodes
        && s.Graph_stats.reciprocity >= 0.0
        && s.Graph_stats.reciprocity <= 1.0
        && s.Graph_stats.sinks <= s.Graph_stats.nodes
        && s.Graph_stats.sources <= s.Graph_stats.nodes);
    qtest "wcc count at most scc count" arb_g (fun g ->
        let s = Graph_stats.compute g in
        Digraph.n g = 0 || s.Graph_stats.wcc_count <= s.Graph_stats.scc_count);
  ]

(* ------------------------------------------------------------------ *)
(* Graph I/O *)

let io_roundtrip () =
  let g = Digraph.make ~n:3 ~labels:[| 0; 1; 1 |] [ (0, 1); (1, 2); (2, 2) ] in
  let table = Graph_io.Label_table.create () in
  ignore (Graph_io.Label_table.intern table "alpha");
  ignore (Graph_io.Label_table.intern table "beta");
  let s = Graph_io.to_string ~labels:table g in
  let g', _ = Graph_io.of_string s in
  Alcotest.(check bool) "roundtrip structure" true
    (Digraph.n g' = 3 && Digraph.m g' = 3 && Digraph.mem_edge g' 2 2);
  (* label identity is preserved up to renaming; nodes 1,2 share a label *)
  Alcotest.(check bool) "labels grouped" true
    (Digraph.label g' 1 = Digraph.label g' 2 && Digraph.label g' 0 <> Digraph.label g' 1)

let io_parse_errors () =
  let expect_err s =
    match Graph_io.of_string s with
    | exception Graph_io.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for: " ^ s)
  in
  expect_err "e 0 1\n";
  expect_err "n 2\ne 0 5\n";
  expect_err "n 2\ne 0\n";
  expect_err "n -1\n";
  expect_err "n 2\nn 2\n";
  expect_err "n 2\nl 9 x\n";
  expect_err "n 2\nq 1 2\n";
  expect_err "n two\n"

let io_comments_and_blanks () =
  let g, _ =
    Graph_io.of_string "# header\n\nn 3\n  # indented comment\ne 0 1 # trailing\n\ne 1 2\n"
  in
  Alcotest.(check int) "edges parsed" 2 (Digraph.m g)

let dot_export () =
  let g = Digraph.make ~n:3 ~labels:[| 0; 1; 1 |] [ (0, 1); (1, 2) ] in
  let dot = Graph_io.to_dot g in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 10 && String.sub dot 0 9 = "digraph g");
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (let len = String.length needle in
         let n = String.length dot in
         let rec scan i =
           i + len <= n && (String.sub dot i len = needle || scan (i + 1))
         in
         scan 0))
    [ "n0 -> n1;"; "n1 -> n2;"; "label=\"0:l0\"" ];
  let clustered = Graph_io.to_dot ~cluster:[| 0; 1; 1 |] g in
  Alcotest.(check bool) "has clusters" true
    (let needle = "subgraph cluster_" in
     let len = String.length needle in
     let n = String.length clustered in
     let rec scan i =
       i + len <= n && (String.sub clustered i len = needle || scan (i + 1))
     in
     scan 0);
  Alcotest.check_raises "cluster length mismatch"
    (Invalid_argument "Graph_io.to_dot: cluster array length mismatch")
    (fun () -> ignore (Graph_io.to_dot ~cluster:[| 0 |] g))

let io_binary_roundtrip () =
  let g =
    Digraph.make ~n:4 ~labels:[| 0; 1; 0; 1 |] [ (0, 1); (1, 2); (2, 3); (3, 0) ]
  in
  let table = Graph_io.Label_table.create () in
  ignore (Graph_io.Label_table.intern table "alpha");
  ignore (Graph_io.Label_table.intern table "beta");
  let s = Graph_io.to_binary_string ~labels:table g in
  let g', table' = Graph_io.of_binary_string s in
  Alcotest.(check bool) "graph equal" true (Digraph.equal g g');
  Alcotest.(check int) "label count" 2 (Graph_io.Label_table.count table');
  Alcotest.(check string) "name 0" "alpha" (Graph_io.Label_table.name table' 0);
  Alcotest.(check string) "name 1" "beta" (Graph_io.Label_table.name table' 1)

let io_binary_errors () =
  let g = Digraph.make ~n:2 [ (0, 1) ] in
  let s = Graph_io.to_binary_string g in
  let expect what s =
    match Graph_io.of_binary_string s with
    | exception Graph_io.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected Parse_error: " ^ what)
  in
  expect "empty input" "";
  expect "header only" "QPGC";
  expect "truncated tail" (String.sub s 0 (String.length s - 1));
  expect "bad magic" ("XXXX" ^ String.sub s 4 (String.length s - 4));
  expect "wrong kind" ("QPGCX" ^ String.sub s 5 (String.length s - 5));
  (* Corrupt the first CSR offset (byte 24, low byte of an int64 that must
     be 0): validation has to catch it, not crash. *)
  let b = Bytes.of_string s in
  Bytes.set b 24 '\xff';
  expect "corrupt offset" (Bytes.to_string b)

let io_props =
  [
    qtest "to_string/of_string structural roundtrip" arb_g (fun g ->
        let g', _ = Graph_io.of_string (Graph_io.to_string g) in
        Digraph.n g' = Digraph.n g
        && Digraph.m g' = Digraph.m g
        && List.for_all (fun (u, v) -> Digraph.mem_edge g' u v) (Testutil.edges_list g)
        && Partition.equivalent (Digraph.labels g) (Digraph.labels g'));
    qtest "binary roundtrip is exact" arb_g (fun g ->
        let g', _ = Graph_io.of_binary_string (Graph_io.to_binary_string g) in
        Digraph.equal g g');
    (* The CSR is canonical, so re-serialising a loaded snapshot must be
       bit-identical; and a graph that went through the text parser binary
       round-trips to the same text. *)
    qtest "binary serialisation is canonical" arb_g (fun g ->
        let s = Graph_io.to_binary_string g in
        let g', _ = Graph_io.of_binary_string s in
        String.equal (Graph_io.to_binary_string g') s);
    qtest "text -> binary -> text fixpoint" arb_g (fun g ->
        let g1, _ = Graph_io.of_string (Graph_io.to_string g) in
        let g2, _ = Graph_io.of_binary_string (Graph_io.to_binary_string g1) in
        String.equal (Graph_io.to_string g2) (Graph_io.to_string g1));
  ]

(* ------------------------------------------------------------------ *)
(* Edge updates *)

let update_unit () =
  let g = Digraph.make ~n:3 [ (0, 1) ] in
  let g2 =
    Edge_update.apply g
      [ Edge_update.Insert (1, 2); Edge_update.Delete (0, 1); Edge_update.Insert (0, 1) ]
  in
  Alcotest.(check bool) "insert applied" true (Digraph.mem_edge g2 1 2);
  Alcotest.(check bool) "last write wins" true (Digraph.mem_edge g2 0 1);
  let g3 = Edge_update.apply g [ Edge_update.Delete (2, 0) ] in
  Alcotest.(check bool) "deleting absent is noop" true (Digraph.equal g g3)

let normalize_unit () =
  let upds =
    [
      Edge_update.Insert (0, 1);
      Edge_update.Delete (0, 1);
      Edge_update.Insert (1, 2);
      Edge_update.Insert (1, 2);
    ]
  in
  let norm = Edge_update.normalize upds in
  Alcotest.(check int) "collapsed" 2 (List.length norm);
  Alcotest.(check bool) "delete won on (0,1)" true
    (List.mem (Edge_update.Delete (0, 1)) norm)

let update_props =
  [
    qtest "apply equals apply of normalized"
      (Testutil.arbitrary_graph_updates ())
      (fun (g, updates) ->
        Digraph.equal (Edge_update.apply g updates)
          (Edge_update.apply g (Edge_update.normalize updates)));
    qtest "apply twice is idempotent for same batch"
      (Testutil.arbitrary_graph_updates ())
      (fun (g, updates) ->
        let g1 = Edge_update.apply g updates in
        Digraph.equal g1 (Edge_update.apply g1 (Edge_update.normalize updates)));
  ]

let () =
  Alcotest.run "graph"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick bitset_unit;
          Alcotest.test_case "bounds" `Quick bitset_bounds;
          Alcotest.test_case "zero capacity" `Quick bitset_zero_capacity;
          Alcotest.test_case "every bit position" `Quick bitset_every_position;
          Alcotest.test_case "write_selected rejects" `Quick write_selected_rejects;
        ]
        @ bitset_props @ kernel_props );
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick digraph_basics;
          Alcotest.test_case "errors" `Quick digraph_errors;
          Alcotest.test_case "edit" `Quick digraph_edit;
          Alcotest.test_case "induced" `Quick digraph_induced;
          Alcotest.test_case "quotient" `Quick digraph_quotient;
          Alcotest.test_case "quotient errors" `Quick digraph_quotient_errors;
        ]
        @ digraph_props );
      ( "traversal",
        [
          Alcotest.test_case "basics" `Quick traversal_unit;
          Alcotest.test_case "bounded" `Quick traversal_bounded;
          Alcotest.test_case "ancestors need a nonempty path" `Quick
            traversal_ancestors_nonempty;
          Alcotest.test_case "budgeted" `Quick traversal_budgeted;
        ]
        @ traversal_props );
      ( "scc",
        [
          Alcotest.test_case "basics" `Quick scc_unit;
          Alcotest.test_case "self loop" `Quick scc_self_loop;
          Alcotest.test_case "deep path and cycle" `Quick scc_deep;
        ]
        @ scc_props );
      ("ranks", rank_props);
      ("transitive", transitive_props @ reduction_dag_props);
      ( "generators",
        [
          Alcotest.test_case "basics" `Quick generators_unit;
          Alcotest.test_case "deterministic" `Quick generators_deterministic;
          Alcotest.test_case "edge cases" `Quick generators_edge_cases;
        ] );
      ( "graph_stats",
        Alcotest.test_case "basics" `Quick stats_unit :: stats_props );
      ( "graph_io",
        [
          Alcotest.test_case "roundtrip" `Quick io_roundtrip;
          Alcotest.test_case "parse errors" `Quick io_parse_errors;
          Alcotest.test_case "comments" `Quick io_comments_and_blanks;
          Alcotest.test_case "binary roundtrip" `Quick io_binary_roundtrip;
          Alcotest.test_case "binary errors" `Quick io_binary_errors;
          Alcotest.test_case "dot export" `Quick dot_export;
        ]
        @ io_props );
      ( "edge_update",
        [
          Alcotest.test_case "apply" `Quick update_unit;
          Alcotest.test_case "normalize" `Quick normalize_unit;
        ]
        @ update_props );
    ]
