(* Clean fixture for the typed tier: exercises the idioms near every
   typed rule without violating any, and must stay clean under the full
   run of both tiers.  Self-contained so it typechecks against
   the stdlib alone. *)

module Pool = struct
  type t = unit

  let parallel_for (_ : t) ~n f =
    for i = 0 to n - 1 do
      f i
    done
end

module Obs = struct
  let begin_span (_ : string) = ()
  let end_span () = ()
end

exception Parse_error of string

(* PARA02-adjacent: disjoint array writes and closure-local state. *)
let squares pool n =
  let out = Array.make n 0 in
  Pool.parallel_for pool ~n (fun i ->
      let x = i * i in
      out.(i) <- x);
  out

(* BOUNDS01-adjacent: checker-dominated read. *)
let need (s : string) off k =
  if off + k > String.length s then raise (Parse_error "truncated")

let word (s : string) off =
  need s off 8;
  String.get_int64_le s off

(* ALLOC02- and POLY02-adjacent: marked region built from toplevel
   recursion over an int array, so its [=] is an integer test. *)
let rec scan (a : int array) x i =
  i < Array.length a && (a.(i) = x || scan a x (i + 1))

let[@lint.hot_loop] member a x = scan a x 0

(* SPAN01-adjacent: balanced span with the check hoisted above it. *)
let timed n =
  if n < 0 then invalid_arg "timed: negative";
  Obs.begin_span "timed";
  let r = n * 2 in
  Obs.end_span ();
  r
