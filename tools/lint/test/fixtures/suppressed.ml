(* Every violation below carries an explicit suppression; the linter must
   report nothing for this file. *)

(* Trailing same-line comment form. *)
let t () = Hashtbl.create 64 (* lint: allow CMP01 *)

(* Comment-above form, with justification prose around the directive. *)
(* This table is tiny and cold by construction.  lint: allow CMP01 *)
let t2 () = Hashtbl.create 4

(* Expression attribute form. *)
let t3 () = (Hashtbl.create 8 [@lint.allow "CMP01"])

(* Structure-item attribute form covers the whole binding. *)
let sorted a = Array.sort compare a [@@lint.allow "POLY01"]

(* Multiple rules in one directive. *)
let h name = (Hashtbl.hash name, List.hd [ name ]) (* lint: allow POLY01, PARTIAL01 *)
