(* Typed-tier suppression fixture: every violation below carries either a
   comment directive or a [@lint.allow] expression attribute, both read
   from the parsed source, so the typed analysis must report nothing. *)

(* Comment form: covers the comment's lines and the next line. *)
let[@lint.hot_loop] hot_comment (a : int array) =
  (* lint: allow ALLOC02 -- fixture: demonstrating the comment form *)
  Array.to_list a

(* Expression attribute form. *)
let[@lint.hot_loop] hot_attr (a : int array) =
  (Array.to_list a [@lint.allow "ALLOC02"])

module Pool = struct
  let parallel_for () ~n f =
    for i = 0 to n - 1 do
      f i
    done
end

(* Comment form on a typed PARA02 finding. *)
let racy_but_reviewed n =
  let total = ref 0 in
  Pool.parallel_for () ~n (fun i ->
      (* lint: allow PARA02 -- fixture: a comment spanning two lines
         covers the line after it *)
      total := !total + i);
  !total
