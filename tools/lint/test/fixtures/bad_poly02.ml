(* POLY02 fixture: polymorphic comparison reachable from [@lint.hot_loop]
   regions.  Expected findings (asserted by test_lint.ml):
   - line 23: via [last_le], whose [pairs] was left unannotated, so its
     [<=] is generalised to ['a] and calls caml_lessequal on every step
   - line 28: [compare] on strings inside a marked region
   - line 33: [=] on an int list, via a local helper; line 59: an
     escaping [=] on strings.  The clean cases must produce nothing. *)

(* A lower-bound search over (lo, hi) pairs, as first written without
   the [(pairs : int array)] annotation. *)
let rec last_le pairs target base n =
  if n <= 1 then base
  else
    let half = n lsr 1 in
    let take = -Bool.to_int (pairs.(2 * (base + half)) <= target) in
    last_le pairs target (base + (half land take)) (n - half)

type t = { pairs : int array; offsets : int array }

(* 1. transitive: the generalised helper compares at ['a] *)
let[@lint.hot_loop] query t c target =
  let start = t.offsets.(c) in
  let i = 2 * last_le t.pairs target start (t.offsets.(c + 1) - start) in
  t.pairs.(i) <= target

(* 2. a non-immediate type in the region itself *)
let[@lint.hot_loop] same_key (a : string) (b : string) =
  compare a b = 0

(* 3. through a local helper *)
let lists_equal (a : int list) b =
  let eq x y = x = y in
  (eq a b) [@lint.hot_loop]

(* clean: the annotated search compares ints inline *)
let rec last_le_int (pairs : int array) target base n =
  if n <= 1 then base
  else
    let half = n lsr 1 in
    let take = -Bool.to_int (pairs.(2 * (base + half)) <= target) in
    last_le_int pairs target (base + (half land take)) (n - half)

let[@lint.hot_loop] clean_query t c target =
  let start = t.offsets.(c) in
  last_le_int t.pairs target start (t.offsets.(c + 1) - start)

(* clean: float, char, bool and a constant-only variant are immediate or
   float *)
type colour = Red | Green

let[@lint.hot_loop] clean_scalars (x : float) (c : char) (b : bool) (k : colour) =
  x < 1.0 && c = 'a' && b <> false && k = Red

(* clean: unmarked code may compare polymorphically *)
let unmarked_sort l = List.sort compare l

(* 4. an escaping comparison in a marked region: in a hot-path module
   both halves of the rule see it, and it is reported once *)
let[@lint.hot_loop] has_key (keys : string list) k = List.exists (( = ) k) keys
