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

let add_slice s a start len =
  let words = s.words and size = s.size in
  for j = start to start + len - 1 do
    let i = a.(j) in
    if i < 0 || i >= size then out_of_range s i;
    let w = i / bits_per_word in
    Array.unsafe_set words w
      (Array.unsafe_get words w lor (1 lsl (i - (w * bits_per_word))))
  done

let remove s i =
  if i < 0 || i >= s.size then out_of_range s i;
  let w = i / bits_per_word in
  Array.unsafe_set s.words w
    (Array.unsafe_get s.words w land lnot (1 lsl (i - (w * bits_per_word))))

let mem s i =
  if i < 0 || i >= s.size then out_of_range s i;
  let w = i / bits_per_word in
  Array.unsafe_get s.words w land (1 lsl (i - (w * bits_per_word))) <> 0

(* [mem] inline over a slice, stopping at the first hit: one toplevel
   recursion, no call per element. *)
let rec meets_from s a i stop =
  i < stop
  &&
  let x = a.(i) in
  if x < 0 || x >= s.size then out_of_range s x;
  let w = x / bits_per_word in
  Array.unsafe_get s.words w land (1 lsl (x - (w * bits_per_word))) <> 0
  || meets_from s a (i + 1) stop

let meets_slice s a start len = meets_from s a start (start + len)

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

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let is_empty s =
  let n = Array.length s.words in
  let rec go i = i >= n || (s.words.(i) = 0 && go (i + 1)) in
  go 0

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
  let aw = into.words and bw = src.words in
  for i = 0 to Array.length aw - 1 do
    aw.(i) <- aw.(i) land bw.(i)
  done

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

(* [add_slice] of the CSR row of each member of [sel], the word walk
   inline: no callback per member. *)
let rec union_word into off ids base word =
  if word <> 0 then begin
    let h = base + ctz word in
    add_slice into ids off.(h) (off.(h + 1) - off.(h));
    union_word into off ids base (word land (word - 1))
  end

let rec union_words into off ids words w =
  if w < Array.length words then begin
    union_word into off ids (w * bits_per_word) (Array.unsafe_get words w);
    union_words into off ids words (w + 1)
  end

let[@lint.hot_loop] union_rows ~into ~off ~ids sel =
  if Array.length off <= sel.size then
    invalid_arg "Bitset.union_rows: offsets too short";
  union_words into off ids sel.words 0

(* [meets_slice] of the CSR row of each member of [s], dropping the
   members whose row misses [t].  A member is cleared in [s.words] as it
   is visited while the walk reads its own copy of the word, so [t] may
   be [s] itself. *)
let rec keep_word s off adj t w base word dropped =
  if word = 0 then dropped
  else begin
    let v = base + ctz word and rest = word land (word - 1) in
    if meets_from t adj off.(v) off.(v + 1) then
      keep_word s off adj t w base rest dropped
    else begin
      Array.unsafe_set s.words w
        (Array.unsafe_get s.words w land lnot (1 lsl (v - base)));
      keep_word s off adj t w base rest true
    end
  end

let rec keep_words s off adj t w dropped =
  if w >= Array.length s.words then dropped
  else
    keep_words s off adj t (w + 1)
      (keep_word s off adj t w (w * bits_per_word) (Array.unsafe_get s.words w)
         dropped)

let[@lint.hot_loop] keep_meeting s ~off ~adj t =
  if Array.length off <= s.size then
    invalid_arg "Bitset.keep_meeting: offsets too short";
  keep_words s off adj t 0 false

(* [to_array]'s walk as toplevel recursion, one 32-bit store per
   member. *)
let rec write_word b at base word =
  if word = 0 then at
  else begin
    Bytes.set_int32_le b at (Int32.of_int (base + ctz word));
    write_word b (at + 4) base (word land (word - 1))
  end

let rec write_words words b at w =
  if w >= Array.length words then at
  else
    write_words words b
      (write_word b at (w * bits_per_word) (Array.unsafe_get words w))
      (w + 1)

(* lint: allow ALLOC02 — the one finding is [write_word]'s
   [Int32.of_int], which feeds [Bytes.set_int32_le] directly: ocamlopt
   keeps that value unboxed, so the walk allocates nothing (0 minor
   words over a 1,000-member write). *)
let[@lint.hot_loop] write_u32_le s b pos = write_words s.words b pos 0

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

let pp ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (to_list s)
