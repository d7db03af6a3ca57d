(* CMP01's cases, checked by POLY02 in a hot-path module. *)

let table () = Hashtbl.create 64
(* line 3: polymorphic Hashtbl.create *)

(* Not flagged: keyed tables. *)
module Itbl = Hashtbl.Make (Int)

let keyed () = Itbl.create 64

(* Resolved paths see through a module alias and an open. *)
module H = Hashtbl

let aliased () = H.create 64
(* line 14: H is Hashtbl *)

let opened () =
  let open Hashtbl in
  create 64
(* line 19: create is Hashtbl.create *)

let local_alias () =
  let module H = Hashtbl in
  H.create 8
(* line 24: a local module alias is Hashtbl too *)
