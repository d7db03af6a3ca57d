(* Flat-word bitsets.  63 usable bits per OCaml int. *)

let bits_per_word = 63

type t = { mutable words : int array; size : int }

let word_count size = (size + bits_per_word - 1) / bits_per_word

let create size =
  if size < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (Mono.imax 1 (word_count size)) 0; size }

let universe_size s = s.size

let out_of_range s i =
  invalid_arg
    (Printf.sprintf "Bitset: index %d out of range [0,%d)" i s.size)

(* The range test is inline and the raise out of line, which keeps these
   small enough for ocamlopt to inline at call sites.  In range, [i / 63]
   indexes [words], so the word accesses need no second bounds check. *)
let add s i =
  if i < 0 || i >= s.size then out_of_range s i;
  let w = i / bits_per_word in
  Array.unsafe_set s.words w
    (Array.unsafe_get s.words w lor (1 lsl (i - (w * bits_per_word))))

let remove s i =
  if i < 0 || i >= s.size then out_of_range s i;
  let w = i / bits_per_word in
  Array.unsafe_set s.words w
    (Array.unsafe_get s.words w land lnot (1 lsl (i - (w * bits_per_word))))

let[@inline] mem s i =
  if i < 0 || i >= s.size then out_of_range s i;
  let w = i / bits_per_word in
  Array.unsafe_get s.words w land (1 lsl (i - (w * bits_per_word))) <> 0

(* Whole words at a time: a mask for the first and the last word of the
   range, every bit of the words between.  [-1] is all 63 bits, and
   [-1 lsl 63] is 0. *)
let[@lint.hot_loop] add_range s lo hi =
  if lo < hi then begin
    if lo < 0 || hi > s.size then
      invalid_arg "Bitset.add_range: range out of bounds";
    let w0 = lo / bits_per_word and w1 = (hi - 1) / bits_per_word in
    let first = -1 lsl (lo - (w0 * bits_per_word))
    and last = lnot (-1 lsl (hi - (w1 * bits_per_word))) in
    let words = s.words in
    if w0 = w1 then
      Array.unsafe_set words w0 (Array.unsafe_get words w0 lor (first land last))
    else begin
      Array.unsafe_set words w0 (Array.unsafe_get words w0 lor first);
      Array.fill words (w0 + 1) (w1 - w0 - 1) (-1);
      Array.unsafe_set words w1 (Array.unsafe_get words w1 lor last)
    end
  end

(* Branch-free SWAR popcount.  The 64-bit masks truncate to OCaml's 63-bit
   ints, which is exactly the classic algorithm run on a zero-extended
   value: lanes never carry into each other, and the only dropped bit
   (bit 63) is zero throughout. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* Count trailing zeros of a nonzero word: isolate the lowest set bit and
   look it up by its residue mod 67.  2 is a primitive root mod 67, so the
   63 powers of two leave distinct residues.  Bit 62 is the sign bit and
   leaves a negative residue; the table is offset by 67 to keep every
   index in range. *)
let ctz_table =
  let t = Array.make 134 0 in
  for k = 0 to bits_per_word - 1 do
    t.(((1 lsl k) mod 67) + 67) <- k
  done;
  t

let ctz x = Array.unsafe_get ctz_table (((x land -x) mod 67) + 67)

(* The SWAR popcount over every word, in C (bitset_stubs.c).  A
   closure-free OCaml loop over [popcount] costs about 0.4 µs more per
   serve-pattern reply, which shows end to end (DESIGN §2.3). *)
external cardinal : t -> int = "qpgc_bitset_cardinal" [@@noalloc]

(* Toplevel recursion, as [disjoint_from] below: a local [let rec] over
   [s] would be a closure allocated on every call, and the pattern
   fixpoint asks once per pattern node. *)
let rec zero_from words i =
  i >= Array.length words || (words.(i) = 0 && zero_from words (i + 1))

let is_empty s = zero_from s.words 0

let clear s = Array.fill s.words 0 (Array.length s.words) 0
let copy s = { words = Array.copy s.words; size = s.size }

let same_universe a b op =
  if a.size <> b.size then
    invalid_arg (Printf.sprintf "Bitset.%s: universe mismatch (%d vs %d)" op a.size b.size)

let equal a b =
  a == b
  ||
  (same_universe a b "equal";
   let n = Array.length a.words in
   let rec go i = i >= n || (a.words.(i) = b.words.(i) && go (i + 1)) in
   go 0)

let union_into ~into src =
  same_universe into src "union_into";
  let changed = ref false in
  let aw = into.words and bw = src.words in
  for i = 0 to Array.length aw - 1 do
    let u = aw.(i) lor bw.(i) in
    if u <> aw.(i) then begin
      aw.(i) <- u;
      changed := true
    end
  done;
  !changed

let inter_into ~into src =
  same_universe into src "inter_into";
  let changed = ref false in
  let aw = into.words and bw = src.words in
  for i = 0 to Array.length aw - 1 do
    let w = aw.(i) land bw.(i) in
    if w <> aw.(i) then begin
      aw.(i) <- w;
      changed := true
    end
  done;
  !changed

let diff_into ~into src =
  same_universe into src "diff_into";
  let aw = into.words and bw = src.words in
  for i = 0 to Array.length aw - 1 do
    aw.(i) <- aw.(i) land lnot bw.(i)
  done

let inter_cardinal a b =
  same_universe a b "inter_cardinal";
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

(* A toplevel recursion: a local [let rec] capturing the two sets would
   be a closure allocated on every call, and pattern matching calls
   [disjoint] once per candidate. *)
let rec disjoint_from aw bw i =
  i >= Array.length aw
  || (aw.(i) land bw.(i) = 0 && disjoint_from aw bw (i + 1))

let disjoint a b =
  same_universe a b "disjoint";
  disjoint_from a.words b.words 0

let subset a b =
  same_universe a b "subset";
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

(* Jump straight to each set bit with ctz and clear it, instead of probing
   all 63 positions: cost is per member, not per word width. *)
let iter f s =
  for w = 0 to Array.length s.words - 1 do
    let word = ref s.words.(w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      f (base + ctz !word);
      word := !word land (!word - 1)
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

(* [iter]'s walk with the writes inline: a row of P is written straight
   out of the words, with no call per member. *)
let to_array s =
  let out = Array.make (cardinal s) 0 and k = ref 0 in
  for w = 0 to Array.length s.words - 1 do
    let word = ref s.words.(w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      Array.unsafe_set out !k (base + ctz !word);
      incr k;
      word := !word land (!word - 1)
    done
  done;
  out

(* [iter] with the context passed alongside the function, as toplevel
   recursion: with a toplevel [f] and an existing [env], a walk allocates
   nothing, not even the partial application [f env]. *)
let rec iter_word f env base word =
  if word <> 0 then begin
    f env (base + ctz word);
    iter_word f env base (word land (word - 1))
  end

let rec iter_words f env words w =
  if w < Array.length words then begin
    iter_word f env (w * bits_per_word) (Array.unsafe_get words w);
    iter_words f env words (w + 1)
  end

let iter_with f env s = iter_words f env s.words 0

(* The row kernels are C (bitset_stubs.c) over [words] in place.  Each
   returns a negative code instead of raising: -1 when a non-empty row
   leaves its array, -2 - j when element j of the id array is outside
   the target's universe.  [row_error] raises the matching
   [Invalid_argument]. *)
external add_slice_c : t -> int array -> int -> int -> int
  = "qpgc_bitset_add_slice"
[@@noalloc]

external union_rows_c : t -> int array -> int array -> t -> int
  = "qpgc_bitset_union_rows"
[@@noalloc]

external keep_meeting_c :
  t ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  t ->
  int
  = "qpgc_bitset_keep_meeting"
[@@noalloc]

external write_u32_le_c : t -> Bytes.t -> int -> int = "qpgc_bitset_write_u32_le"
[@@noalloc]

external weight_c : t -> int array -> int = "qpgc_bitset_weight" [@@noalloc]

external write_selected_c :
  t -> Bytes.t -> int -> int -> Bytes.t -> int -> int -> int
  = "qpgc_bitset_write_selected_byte" "qpgc_bitset_write_selected"
[@@noalloc]

let row_error op target id code =
  if code = -1 then invalid_arg ("Bitset." ^ op ^ ": a row leaves its array")
  else out_of_range target (id (-2 - code))

let add_slice s a start len =
  if len > 0 then begin
    if start < 0 || start > Array.length a - len then
      invalid_arg "Bitset.add_slice: slice out of bounds";
    let r = add_slice_c s a start len in
    if r < 0 then row_error "add_slice" s (Array.get a) r
  end

let union_rows ~into ~off ~ids sel =
  if Array.length off <= sel.size then
    invalid_arg "Bitset.union_rows: offsets too short";
  let r = union_rows_c into off ids sel in
  if r < 0 then row_error "union_rows" into (Array.get ids) r

let keep_meeting s ~off ~adj t =
  if Bigarray.Array1.dim off <= s.size then
    invalid_arg "Bitset.keep_meeting: offsets too short";
  let r = keep_meeting_c s off adj t in
  if r < 0 then row_error "keep_meeting" t (Bigarray.Array1.get adj) r
  else r = 1

let write_u32_le s b pos =
  let r = write_u32_le_c s b pos in
  if r < 0 then invalid_arg "Bitset.write_u32_le: the members do not fit";
  r

let weight s ~off =
  if Array.length off <= s.size then invalid_arg "Bitset.weight: offsets too short";
  weight_c s off

let write_selected sel ~pairs ~lo ~hi ~count b pos =
  if count < 0 || pos < 0 || pos > Bytes.length b
     || count > (Bytes.length b - pos) / 4
  then invalid_arg "Bitset.write_selected: the ids do not fit";
  let stop = pos + (4 * count) in
  let r = write_selected_c sel pairs lo hi b pos stop in
  if r = -1 then invalid_arg "Bitset.write_selected: the range leaves its array"
  else if r < 0 then begin
    let i = -2 - r in
    invalid_arg
      (Printf.sprintf "Bitset.write_selected: the %s of entry %d is outside [0,%d)"
         (if i mod 2 = 0 then "id" else "key")
         (i / 2)
         (if i mod 2 = 0 then Bytes.length pairs / 8 else sel.size))
  end
  else if r <> stop then
    invalid_arg "Bitset.write_selected: fewer selected ids than the count"
  else r

let of_list size xs =
  let s = create size in
  List.iter (add s) xs;
  s

exception Found of int

let choose s =
  try
    iter (fun i -> raise (Found i)) s;
    None
  with Found i -> Some i

let hash s =
  let h = ref (s.size * 0x9e3779b1) in
  for i = 0 to Array.length s.words - 1 do
    let w = s.words.(i) in
    if w <> 0 then h := (!h * 31) lxor w lxor i
  done;
  !h land max_int
