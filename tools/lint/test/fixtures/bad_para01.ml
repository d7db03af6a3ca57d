(* PARA01's cases, checked by PARA02.  Lines matter: test_lint.ml asserts them. *)
module Pool = struct let parallel_for () ~n f = for i = 0 to n - 1 do f i done
  let parallel_for_ranges () ~n f = f 0 n end
let bad_ref pool n =
  let total = ref 0 in
  Pool.parallel_for pool ~n (fun i -> total := !total + i);
  (* line 6: `:=` on captured ref *)
  !total

let bad_incr pool n =
  let hits = ref 0 in
  Pool.parallel_for pool ~n (fun _ -> incr hits);
  (* line 12: `incr` on captured ref *)
  !hits

let bad_hashtbl pool n =
  let seen = Hashtbl.create 16 in
  Pool.parallel_for pool ~n (fun i -> Hashtbl.replace seen i ());
  (* line 18: Hashtbl.replace on captured table *)
  Hashtbl.length seen

let bad_buffer pool n =
  let buf = Buffer.create 64 in
  Pool.parallel_for_ranges pool ~n (fun lo _hi ->
      Buffer.add_string buf (string_of_int lo));
  (* line 25: Buffer.add_string on captured buffer *)
  Buffer.contents buf

(* The sanctioned pattern: disjoint writes into a shared array, and state
   created inside the closure -- no findings below this line. *)
let good pool n =
  let out = Array.make n 0 in
  Pool.parallel_for pool ~n (fun i -> out.(i) <- i * i);
  Pool.parallel_for_ranges pool ~n (fun lo hi ->
      let scratch = ref 0 in
      let local_tbl = Hashtbl.create 8 in
      for i = lo to hi - 1 do
        scratch := !scratch + i;
        Hashtbl.replace local_tbl i !scratch
      done;
      out.(lo) <- !scratch);
  out

(* line 48: record-field write on a captured record *)
type acc = { mutable cell : int }

let bad_field pool n (state : acc) =
  Pool.parallel_for pool ~n (fun i -> state.cell <- state.cell + i)
