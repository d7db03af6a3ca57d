(* Every violation below carries an explicit suppression; the linter must
   report nothing for this file. *)

(* Trailing same-line comment form. *)
let t () = Sys.time () (* lint: allow OBS01 *)

(* Comment-above form, with justification prose around the directive. *)
(* This clock read is cold by construction.  lint: allow OBS01 *)
let t2 () = Sys.time ()

(* Expression attribute form. *)
let t3 l = (List.hd l [@lint.allow "PARTIAL01"])

(* Structure-item attribute form covers the whole binding. *)
let first l = Option.get (List.nth_opt l 0) [@@lint.allow "PARTIAL01"]

(* Multiple rules in one directive. *)
let h l = (Sys.time (), List.hd l) (* lint: allow OBS01, PARTIAL01 *)
