(* ALLOC02 fixture: allocation inside [@lint.hot_loop] regions.
   Expected findings (asserted by test_lint.ml):
   - line 12: closure allocation (the [fun] passed to Array.iter)
   - line 19: ref allocation via allocating stdlib call
   - line 26: tuple construction
   - line 33: transitive, via the local helper [boxed]
   - lines 58-61: a hash table per round; the clean cases below: none *)

(* 1. closure allocated per call in a marked binding *)
let[@lint.hot_loop] hot_sum (a : int array) =
  let total = ref 0 in
  Array.iter (fun x -> total := !total + x) a;
  !total

(* 2. allocating stdlib call in a marked expression region *)
let ref_in_loop n =
  let acc = Array.make n 0 in
  (for i = 0 to n - 1 do
     let cell = ref i in
     acc.(i) <- !cell
   done) [@lint.hot_loop];
  acc

(* 3. tuple built on every iteration *)
let[@lint.hot_loop] pair_walk (a : int array) =
  let best = ref (0, 0) in
  Array.iteri (fun i x -> if x > snd !best then best := (i, x)) a;
  !best

(* 4. transitive: helper allocates, marked caller reaches it *)
let box_it x = Some x

let[@lint.hot_loop] hot_via_helper (a : int array) =
  let n = Array.length a in
  let out = Array.make n None in
  for i = 0 to n - 1 do
    out.(i) <- box_it a.(i)
  done;
  out

(* 5. hash tables created inside a marked loop: the stdlib's and keyed
   [Hashtbl.Make] instances alike *)
module Mono = struct
  module Itbl = Hashtbl.Make (Int)

  module Ptbl = Hashtbl.Make (struct
    type t = int * int

    let equal ((a, b) : t) (c, d) = a = c && b = d
    let hash ((a, b) : t) = (a * 31) + b
  end)
end

module Sig_tbl = Hashtbl.Make (String)

let tables_per_round n =
  (for _ = 1 to n do
     ignore (Hashtbl.create n);
     ignore (Mono.Itbl.create n);
     ignore (Mono.Ptbl.create (2 * n));
     ignore (Sig_tbl.create n)
   done) [@lint.hot_loop]

(* clean: toplevel recursion, flat arrays, no allocation *)
let rec clean_scan a x i =
  i < Array.length a && (a.(i) = x || clean_scan a x (i + 1))

let[@lint.hot_loop] clean_member a x = clean_scan a x 0

(* clean: raising paths are exempt *)
let[@lint.hot_loop] clean_checked a i =
  if i < 0 || i >= Array.length a then invalid_arg "clean_checked: bounds";
  a.(i)

(* clean: unmarked code may allocate freely *)
let unmarked_builder n = List.init n (fun i -> (i, i * i))
