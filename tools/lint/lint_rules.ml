(* Lint rules and their registry.

   Each rule is an [Ast_iterator] pass over a parsed implementation.  Rules
   report through a shared context; suppression filtering happens later in
   the driver, so rules stay oblivious to it.

   Shipped rules:

   - PARA01  race lint: mutation of captured shared state inside closures
             handed to [Pool.parallel_for] / [parallel_for_ranges] /
             [parallel_map] / [parallel_map_list].
   - POLY01  polymorphic comparison on hot paths: [min] / [max] /
             [Hashtbl.hash] anywhere, and [compare] / [=] / [<>] escaping
             as first-class functions (direct full applications are
             specialised by the compiler when the type is known, so they
             are not flagged).
   - PARTIAL01  partial stdlib functions: [List.hd] / [List.tl] /
             [List.nth] / [Option.get].
   - CMP01   polymorphic [Hashtbl.create] in hot modules, where a keyed
             [Hashtbl.Make] table hashes and compares monomorphically.
   - ALLOC01 hash-table creation ([Hashtbl.create] or any keyed [*tbl]
             table) inside [lib/partition], the flat-array refinement
             substrate whose hot loops are contractually allocation-free.
             Scoped by display path, not by the hot classification.
   - OBS01   raw clocks ([Unix.gettimeofday] / [Sys.time]) anywhere
             outside [lib/obs]: timing goes through the monotonic
             [Obs.Clock] so durations cannot go negative under NTP steps
             and all measurement shares one code path.
   - OBS02   direct console output ([print_string] / [Printf.printf] /
             [prerr_endline] / [Format.eprintf] ...) inside [lib/server]
             and [lib/parallel]: daemon and pool diagnostics go through
             the leveled, per-domain-buffered [Obs.Log], so lines never
             interleave across domains and operators can gate/format
             them. *)

open Parsetree

type ctx = {
  display : string;  (* path shown in diagnostics *)
  hot : bool;  (* file lives under a designated hot-path directory *)
  mutable diags : Lint_diag.t list;
}

let report ctx ~loc ~rule msg =
  ctx.diags <- Lint_diag.make ~file:ctx.display ~loc ~rule msg :: ctx.diags

type rule = {
  id : string;
  doc : string;
  hot_only : bool;
  check : ctx -> structure -> unit;
}

let registry : rule list ref = ref []
let register r = registry := r :: !registry
let all_rules () = List.sort (fun a b -> String.compare a.id b.id) !registry

(* ------------------------------------------------------------------ *)
(* Longident helpers *)

let path_of_longident lid =
  match Longident.flatten lid with
  | path -> Some path
  | exception _ -> None  (* Lapply *)

(* Normalised path of an identifier expression, with a leading [Stdlib]
   dropped so ["Stdlib"; "compare"] and ["compare"] match the same way. *)
let path_of_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match path_of_longident txt with
      | Some ("Stdlib" :: rest) when rest <> [] -> Some rest
      | p -> p)
  | _ -> None

let rec pat_vars acc p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pat_vars (txt :: acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_vars acc ps
  | Ppat_construct (_, Some (_, p))
  | Ppat_variant (_, Some p)
  | Ppat_constraint (p, _)
  | Ppat_lazy p
  | Ppat_open (_, p)
  | Ppat_exception p -> pat_vars acc p
  | Ppat_or (a, b) -> pat_vars (pat_vars acc a) b
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, p) -> pat_vars acc p) acc fields
  | _ -> acc

(* ------------------------------------------------------------------ *)
(* PARA01: shared-state mutation inside parallel closures *)

let pool_entry_points =
  [ "parallel_for"; "parallel_for_ranges"; "parallel_map"; "parallel_map_list" ]

let is_pool_entry path =
  match List.rev path with
  | fn :: rest ->
      List.mem fn pool_entry_points
      && (match rest with
         | [] -> true  (* opened Pool *)
         | m :: _ -> m = "Pool")
  | [] -> false

(* Modules whose imperative operations PARA01 treats as shared-state
   mutation when applied to a captured target: the stdlib [Hashtbl] and
   [Buffer], plus keyed tables by convention ([Itbl], [Ptbl], ... -- any
   module name ending in "tbl"/"Tbl", as produced by [Hashtbl.Make]). *)
let mutating_module m =
  m = "Hashtbl" || m = "Buffer"
  || (let n = String.length m in
      n >= 3
      && (let suffix = String.lowercase_ascii (String.sub m (n - 3) 3) in
          suffix = "tbl"))

let mutating_fn =
  [ "add"; "replace"; "remove"; "reset"; "clear"; "add_char"; "add_string";
    "add_bytes"; "add_subbytes"; "add_substring"; "add_buffer"; "add_channel";
    "truncate"; "filter_map_inplace" ]

(* The head variable a mutation targets: [Some name] for a bare variable,
   [Some "M.x"] for a qualified (necessarily global) path, [None] when the
   target is computed (e.g. [arr.(i)], a function result) and therefore
   outside this rule's scope. *)
let target_head e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> Some (n, false)
  | Pexp_ident { txt; _ } -> (
      match path_of_longident txt with
      | Some path -> Some (String.concat "." path, true)
      | None -> None)
  | _ -> None

let check_closure_body ctx locals body =
  let locals : (string, unit) Hashtbl.t = locals in
  let is_local n = Hashtbl.mem locals n in
  let flag loc what name =
    report ctx ~loc ~rule:"PARA01"
      (Printf.sprintf
         "%s mutates `%s`, which is captured from outside this parallel \
          closure; parallel bodies may only write disjoint indices of \
          shared arrays (define the state inside the closure, or suppress \
          with a `lint: allow PARA01` comment if access is provably \
          disjoint)"
         what name)
  in
  let flag_if_captured loc what target =
    match target_head target with
    | Some (name, qualified) when qualified || not (is_local name) ->
        flag loc what name
    | _ -> ()
  in
  let open Ast_iterator in
  let super = default_iterator in
  let add_pat p = List.iter (fun v -> Hashtbl.replace locals v ()) (pat_vars [] p) in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) -> List.iter (fun vb -> add_pat vb.pvb_pat) vbs
    | Pexp_fun (_, _, p, _) -> add_pat p
    | Pexp_function cases | Pexp_match (_, cases) | Pexp_try (_, cases) ->
        List.iter (fun c -> add_pat c.pc_lhs) cases
    | Pexp_for (p, _, _, _, _) -> add_pat p
    | Pexp_setfield (target, field, _) ->
        let fname =
          match path_of_longident field.txt with
          | Some p -> String.concat "." p
          | None -> "<field>"
        in
        flag_if_captured e.pexp_loc
          (Printf.sprintf "record-field write `%s <-`" fname)
          target
    | Pexp_apply (f, args) -> (
        match (path_of_expr f, args) with
        | Some [ ":=" ], (_, lhs) :: _ ->
            flag_if_captured e.pexp_loc "`:=`" lhs
        | Some [ ("incr" | "decr") as op ], (_, lhs) :: _ ->
            flag_if_captured e.pexp_loc (Printf.sprintf "`%s`" op) lhs
        | Some path, (_, first) :: _ -> (
            match List.rev path with
            | fn :: m :: _ when mutating_module m && List.mem fn mutating_fn ->
                flag_if_captured e.pexp_loc
                  (Printf.sprintf "`%s.%s`" m fn)
                  first
            | _ -> ())
        | _ -> ())
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it body

(* Strip [fun]/[newtype] binders off a closure literal, accumulating the
   parameter variables; returns [None] when the argument expression is not
   a syntactic closure (an identifier, a partial application, ...). *)
let closure_parts e =
  let locals = Hashtbl.create 16 in
  let add_pat p = List.iter (fun v -> Hashtbl.replace locals v ()) (pat_vars [] p) in
  let rec strip e =
    match e.pexp_desc with
    | Pexp_fun (_, _, p, body) ->
        add_pat p;
        Some (strip_tail body)
    | Pexp_newtype (_, body) -> strip body
    | Pexp_function cases ->
        List.iter (fun c -> add_pat c.pc_lhs) cases;
        Some
          (List.concat_map
             (fun c -> match c.pc_guard with
                | Some g -> [ g; c.pc_rhs ]
                | None -> [ c.pc_rhs ])
             cases)
    | _ -> None
  and strip_tail body =
    (* Inner [fun] layers are part of the same closure. *)
    match body.pexp_desc with
    | Pexp_fun (_, _, p, inner) ->
        add_pat p;
        strip_tail inner
    | Pexp_newtype (_, inner) -> strip_tail inner
    | _ -> [ body ]
  in
  match strip e with Some bodies -> Some (locals, bodies) | None -> None

let para01 =
  {
    id = "PARA01";
    hot_only = false;
    doc =
      "Mutation of captured shared state (ref :=, incr/decr, Hashtbl/Buffer \
       updates, record-field writes) inside a closure passed to \
       Pool.parallel_for / parallel_for_ranges / parallel_map / \
       parallel_map_list. Parallel bodies must only write disjoint indices \
       of shared arrays (the Pool contract); anything else is a data race.";
    check =
      (fun ctx structure ->
        let open Ast_iterator in
        let super = default_iterator in
        let expr it e =
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              match path_of_expr f with
              | Some path when is_pool_entry path ->
                  List.iter
                    (fun (_, arg) ->
                      match closure_parts arg with
                      | Some (locals, bodies) ->
                          List.iter (check_closure_body ctx locals) bodies
                      | None -> ())
                    args
              | _ -> ())
          | _ -> ());
          super.expr it e
        in
        let it = { super with expr } in
        it.structure it structure);
  }

(* ------------------------------------------------------------------ *)
(* POLY01: polymorphic comparison on hot paths *)

let poly_comparators = [ "compare"; "="; "<>" ]
let poly_always = [ "min"; "max" ]

let poly01 =
  {
    id = "POLY01";
    hot_only = true;
    doc =
      "Polymorphic comparison in a hot-path module (lib/graph, \
       lib/partition, lib/core, lib/query): min/max and Hashtbl.hash \
       anywhere, and compare / = / <> escaping as first-class functions \
       (e.g. Array.sort compare). Use a monomorphic version (Int.compare, \
       Mono.imin, an FNV-1a string hash, ...) instead; the generic \
       caml_compare walk is a memory-bound interpreter of the value's \
       shape.";
    check =
      (fun ctx structure ->
        (* Names locally rebound in the file (e.g. a module-level
           [let compare : int -> int -> int = ...]) are monomorphic by
           construction: bare uses from the binding's line onward are not
           flagged.  Tracking is by line, not scope -- precise enough for
           the shadow-at-top-of-module idiom this rule encourages. *)
        let shadowed = Hashtbl.create 8 in
        let collect =
          let open Ast_iterator in
          let super = default_iterator in
          let value_binding it vb =
            let line = vb.pvb_loc.loc_start.pos_lnum in
            List.iter
              (fun v ->
                if List.mem v poly_comparators || List.mem v poly_always then
                  match Hashtbl.find_opt shadowed v with
                  | Some l when l <= line -> ()
                  | _ -> Hashtbl.replace shadowed v line)
              (pat_vars [] vb.pvb_pat);
            super.value_binding it vb
          in
          { super with value_binding }
        in
        collect.structure collect structure;
        let is_shadowed n ~(loc : Location.t) =
          match Hashtbl.find_opt shadowed n with
          | Some l -> l <= loc.loc_start.pos_lnum
          | None -> false
        in
        let flag_hash loc =
          report ctx ~loc ~rule:"POLY01"
            "Hashtbl.hash is a polymorphic structure walk and its result \
             varies across OCaml versions; hash the key monomorphically \
             (e.g. an FNV-1a string hash, or the int itself)"
        in
        let flag_minmax loc name =
          report ctx ~loc ~rule:"POLY01"
            (Printf.sprintf
               "`%s` dispatches through polymorphic compare on every call \
                (it is never specialised); use a typed version such as \
                Mono.i%s / Mono.f%s"
               name name name)
        in
        let flag_escape loc name =
          report ctx ~loc ~rule:"POLY01"
            (Printf.sprintf
               "`%s` escapes as a first-class function here, so the \
                compiler cannot specialise it and every call runs the \
                generic caml_compare walk; pass a monomorphic comparison \
                (Int.compare, String.equal, ...) instead"
               name)
        in
        (* A bare use of one of the tracked names; [applied_args] is the
           number of explicit arguments when the ident heads an
           application, or 0 when it escapes. *)
        let check_ident loc path ~applied_args =
          match path with
          | [ "Hashtbl"; ("hash" | "seeded_hash") ] -> flag_hash loc
          | [ name ] when List.mem name poly_always && not (is_shadowed name ~loc)
            ->
              flag_minmax loc name
          | [ name ]
            when List.mem name poly_comparators
                 && (not (is_shadowed name ~loc))
                 && applied_args < 2 ->
              flag_escape loc name
          | _ -> ()
        in
        let open Ast_iterator in
        let super = default_iterator in
        let expr it e =
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              match path_of_expr f with
              | Some path ->
                  check_ident f.pexp_loc path ~applied_args:(List.length args)
              | None -> ())
          | Pexp_ident _ -> (
              (* Escaping position: argument, binding rhs, ... (idents that
                 head an application are handled above; the default
                 iterator will revisit them, so applications are filtered
                 out by the caller shape). *)
              match path_of_expr e with
              | Some path -> check_ident e.pexp_loc path ~applied_args:0
              | None -> ())
          | _ -> ());
          match e.pexp_desc with
          | Pexp_apply (f, args) ->
              (* Skip the head ident (already judged with its arity); an
                 ident in head position must not be re-flagged as
                 escaping. *)
              (match f.pexp_desc with
              | Pexp_ident _ -> ()
              | _ -> it.expr it f);
              List.iter (fun (_, a) -> it.expr it a) args
          | _ -> super.expr it e
        in
        let it = { super with expr } in
        it.structure it structure);
  }

(* ------------------------------------------------------------------ *)
(* PARTIAL01: partial stdlib functions *)

let partial_fns =
  [
    ([ "List"; "hd" ], "List.hd");
    ([ "List"; "tl" ], "List.tl");
    ([ "List"; "nth" ], "List.nth");
    ([ "ListLabels"; "hd" ], "ListLabels.hd");
    ([ "ListLabels"; "tl" ], "ListLabels.tl");
    ([ "ListLabels"; "nth" ], "ListLabels.nth");
    ([ "Option"; "get" ], "Option.get");
    (* Not-found raisers: the [_opt] variants force the caller to decide
       what absence means instead of leaking a bare [Not_found]. *)
    ([ "Hashtbl"; "find" ], "Hashtbl.find");
    ([ "List"; "find" ], "List.find");
    ([ "ListLabels"; "find" ], "ListLabels.find");
    ([ "String"; "index" ], "String.index");
    ([ "StringLabels"; "index" ], "StringLabels.index");
  ]

let partial01 =
  {
    id = "PARTIAL01";
    hot_only = false;
    doc =
      "Partial stdlib functions (List.hd, List.tl, List.nth, Option.get, \
       Hashtbl.find, List.find, String.index) raise on the shapes they \
       exclude with a message that names neither caller nor data. \
       Destructure with a total match, or use the [_opt] variant, carrying \
       a real error message instead. Test code is exempt by construction: \
       the lint aliases only cover lib/, bin/ and bench/.";
    check =
      (fun ctx structure ->
        let open Ast_iterator in
        let super = default_iterator in
        let expr it e =
          (match e.pexp_desc with
          | Pexp_ident _ -> (
              match path_of_expr e with
              | Some path -> (
                  match List.assoc_opt path partial_fns with
                  | Some name ->
                      report ctx ~loc:e.pexp_loc ~rule:"PARTIAL01"
                        (Printf.sprintf
                           "`%s` is partial and fails with a context-free \
                            exception; use a total match with a real error \
                            message"
                           name)
                  | None -> ())
              | None -> ())
          | _ -> ());
          super.expr it e
        in
        let it = { super with expr } in
        it.structure it structure);
  }

(* ------------------------------------------------------------------ *)
(* CMP01: polymorphic hash tables in hot modules *)

let cmp01 =
  {
    id = "CMP01";
    hot_only = true;
    doc =
      "Polymorphic Hashtbl.create in a hot-path module: every operation \
       hashes and compares keys through the generic structural walk. Use a \
       keyed table (Hashtbl.Make) with monomorphic hash/equal -- e.g. \
       Mono.Itbl for int keys, Mono.Ptbl for int-pair keys, Mono.Stbl for \
       string keys.";
    check =
      (fun ctx structure ->
        let open Ast_iterator in
        let super = default_iterator in
        let expr it e =
          (match e.pexp_desc with
          | Pexp_ident _ -> (
              match path_of_expr e with
              | Some [ "Hashtbl"; "create" ] ->
                  report ctx ~loc:e.pexp_loc ~rule:"CMP01"
                    "polymorphic `Hashtbl.create` in a hot-path module; use \
                     a keyed table with monomorphic hash/equal (Mono.Itbl, \
                     Mono.Ptbl, Mono.Stbl, or a local Hashtbl.Make)"
              | _ -> ())
          | _ -> ());
          super.expr it e
        in
        let it = { super with expr } in
        it.structure it structure);
  }

(* ------------------------------------------------------------------ *)
(* ALLOC01: hash tables in the refinement substrate *)

(* Self-scoped by path rather than by the hot classification: the other
   hot directories (lib/graph, lib/core, lib/query) use keyed tables
   legitimately, but lib/partition is the flat-array refinement engine —
   its whole point is that mark/split/refine run on preallocated arrays. *)
let alloc01_scope = "lib/partition"

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Hash-table modules: the stdlib [Hashtbl] plus keyed tables by convention
   ([Mono.Itbl], [Sig_tbl], ... -- any module name ending "tbl"/"Tbl", as
   produced by [Hashtbl.Make]). *)
let table_module m =
  m = "Hashtbl"
  || (let n = String.length m in
      n >= 3 && String.lowercase_ascii (String.sub m (n - 3) 3) = "tbl")

let alloc01 =
  {
    id = "ALLOC01";
    hot_only = false;
    doc =
      "Hash-table creation (Hashtbl.create or a keyed *tbl table such as \
       Mono.Itbl / Mono.Ptbl) inside lib/partition, the flat-array \
       partition-refinement substrate: its hot loops (mark, split, the \
       Paige-Tarjan rounds) are contractually zero-allocation, with edge \
       counts in a flat counter pool indexed by CSR edge position. Keep \
       tables out of refinement code, or suppress with `lint: allow \
       ALLOC01` for set-up / oracle / normalization code that runs once.";
    check =
      (fun ctx structure ->
        if contains_sub ~sub:alloc01_scope ctx.display then begin
          let open Ast_iterator in
          let super = default_iterator in
          let expr it e =
            (match e.pexp_desc with
            | Pexp_ident _ -> (
                match path_of_expr e with
                | Some path -> (
                    match List.rev path with
                    | "create" :: m :: _ when table_module m ->
                        report ctx ~loc:e.pexp_loc ~rule:"ALLOC01"
                          (Printf.sprintf
                             "`%s.create` allocates a hash table inside \
                              lib/partition, the zero-allocation refinement \
                              substrate; keep tables out of refinement \
                              loops (flat arrays indexed by node / block / \
                              CSR edge position), or suppress with `lint: \
                              allow ALLOC01` for one-shot set-up or oracle \
                              code"
                             m)
                    | _ -> ())
                | None -> ())
            | _ -> ());
            super.expr it e
          in
          let it = { super with expr } in
          it.structure it structure
        end);
  }

(* ------------------------------------------------------------------ *)
(* OBS01: raw clocks outside the observability layer *)

(* Inverse of the ALLOC01 scoping: fires everywhere EXCEPT lib/obs, the
   one place allowed to touch a raw clock (Obs_clock wraps the monotonic
   one). *)
let obs01_scope = "lib/obs"

let raw_clocks =
  [
    ([ "Unix"; "gettimeofday" ], "Unix.gettimeofday");
    ([ "UnixLabels"; "gettimeofday" ], "UnixLabels.gettimeofday");
    ([ "Sys"; "time" ], "Sys.time");
  ]

let obs01 =
  {
    id = "OBS01";
    (* Not hot-only: ad-hoc timing lives in cold front ends (bin/, bench/,
       lib/workload) — exactly where the duplicated gettimeofday deltas
       used to accumulate. *)
    hot_only = false;
    doc =
      "Raw clock reads (Unix.gettimeofday, Sys.time) outside lib/obs. \
       Wall-clock time is stepped by NTP, so deltas can go negative, and \
       Sys.time is process CPU time, which under a domain pool sums every \
       worker's cycles; both also bypass the span/metrics layer. Time with \
       Obs.time (result + seconds), Obs.Clock.now_ns / elapsed_s, or wrap \
       the region in Obs.span instead.";
    check =
      (fun ctx structure ->
        if not (contains_sub ~sub:obs01_scope ctx.display) then begin
          let open Ast_iterator in
          let super = default_iterator in
          let expr it e =
            (match e.pexp_desc with
            | Pexp_ident _ -> (
                match path_of_expr e with
                | Some path -> (
                    match
                      List.find_opt (fun (p, _) -> p = path) raw_clocks
                    with
                    | Some (_, name) ->
                        report ctx ~loc:e.pexp_loc ~rule:"OBS01"
                          (Printf.sprintf
                             "`%s` is a raw clock read outside lib/obs; \
                              time with Obs.time / Obs.Clock.now_ns (the \
                              monotonic clock) or wrap the region in \
                              Obs.span, so durations cannot go negative \
                              and all measurement shares one code path"
                             name)
                    | None -> ())
                | None -> ())
            | _ -> ());
            super.expr it e
          in
          let it = { super with expr } in
          it.structure it structure
        end);
  }

(* ------------------------------------------------------------------ *)
(* CSR02: the dense CSR escape hatch outside the storage layer *)

(* The pluggable-backend refactor turned [Digraph.out_csr] / [in_csr] into
   an escape hatch: on the mapped and varint backends each call forces (and
   caches) a flat heap copy of the whole adjacency, silently defeating
   zero-copy mmap loading and the compact encoding.  The storage layer
   itself (lib/graph) owns the representation and may use them freely;
   everywhere else iterates through the backend-polymorphic accessors, and
   the few kernels that genuinely need dense arrays carry a justified
   `lint: allow CSR02`. *)
let csr02_scope = "lib/graph"

let csr_dense =
  [
    ([ "Digraph"; "out_csr" ], "Digraph.out_csr");
    ([ "Digraph"; "in_csr" ], "Digraph.in_csr");
  ]

let csr02 =
  {
    id = "CSR02";
    (* Not hot-only: a single cold out_csr call on a mapped graph pulls the
       whole adjacency onto the heap, so bin/ and bench/ matter just as
       much as the kernels. *)
    hot_only = false;
    doc =
      "Dense CSR views (Digraph.out_csr, Digraph.in_csr) outside lib/graph: \
       on the mapped and varint storage backends each call forces and \
       caches a flat heap copy of the entire adjacency, defeating zero-copy \
       mmap loading and the compact encoding. Iterate with Digraph.iter_succ \
       / fold_succ / succ_slice (and the *_pred mirrors), which dispatch per \
       backend without materializing; a kernel that genuinely needs the \
       dense arrays suppresses with `lint: allow CSR02` plus a \
       justification.";
    check =
      (fun ctx structure ->
        if not (contains_sub ~sub:csr02_scope ctx.display) then begin
          let open Ast_iterator in
          let super = default_iterator in
          let expr it e =
            (match e.pexp_desc with
            | Pexp_ident _ -> (
                match path_of_expr e with
                | Some path -> (
                    match List.find_opt (fun (p, _) -> p = path) csr_dense with
                    | Some (_, name) ->
                        report ctx ~loc:e.pexp_loc ~rule:"CSR02"
                          (Printf.sprintf
                             "`%s` materializes the dense CSR outside \
                              lib/graph, forcing a full heap copy on the \
                              mapped and varint backends; iterate with \
                              Digraph.iter_succ / fold_succ / succ_slice \
                              (or *_pred), or suppress with `lint: allow \
                              CSR02` where the dense arrays are genuinely \
                              required"
                             name)
                    | None -> ())
                | None -> ())
            | _ -> ());
            super.expr it e
          in
          let it = { super with expr } in
          it.structure it structure
        end);
  }

(* ------------------------------------------------------------------ *)
(* SRV01: no blocking primitives inside the serving layer *)

(* The daemon's event loop is single-threaded: one blocking sleep or one
   unbounded "read exactly N bytes" call stalls every connection at once.
   lib/server therefore reads in bounded [Unix.read] chunks driven by the
   protocol's length prefix and never sleeps — retry/backoff loops belong
   in the callers (bin/, bench/), which may block freely. *)
let srv01_scope = "lib/server"

let srv_blocking =
  [
    ([ "Unix"; "sleep" ], "Unix.sleep");
    ([ "Unix"; "sleepf" ], "Unix.sleepf");
    ([ "UnixLabels"; "sleep" ], "UnixLabels.sleep");
    ([ "UnixLabels"; "sleepf" ], "UnixLabels.sleepf");
    ([ "Thread"; "delay" ], "Thread.delay");
    ([ "really_input" ], "really_input");
    ([ "really_input_string" ], "really_input_string");
    ([ "In_channel"; "really_input" ], "In_channel.really_input");
    ([ "In_channel"; "really_input_string" ], "In_channel.really_input_string");
    ([ "input_line" ], "input_line");
    ([ "In_channel"; "input_line" ], "In_channel.input_line");
  ]

let srv01 =
  {
    id = "SRV01";
    (* lib/server is linted cold (no kernels), so the rule must not be
       hot-only to run there at all. *)
    hot_only = false;
    doc =
      "Blocking primitives (Unix.sleep/sleepf, Thread.delay, really_input, \
       really_input_string, input_line) inside lib/server: the daemon's \
       event loop is single-threaded, so one blocking call stalls every \
       connection and wrecks the latency tail. Read in bounded Unix.read \
       chunks driven by the protocol's length prefix, let Unix.select do \
       the waiting, and keep retry/backoff sleeps in the callers (bin/, \
       bench/).";
    check =
      (fun ctx structure ->
        if contains_sub ~sub:srv01_scope ctx.display then begin
          let open Ast_iterator in
          let super = default_iterator in
          let expr it e =
            (match e.pexp_desc with
            | Pexp_ident _ -> (
                match path_of_expr e with
                | Some path -> (
                    match
                      List.find_opt (fun (p, _) -> p = path) srv_blocking
                    with
                    | Some (_, name) ->
                        report ctx ~loc:e.pexp_loc ~rule:"SRV01"
                          (Printf.sprintf
                             "`%s` blocks the single-threaded serving loop, \
                              stalling every connection at once; use \
                              bounded Unix.read chunks driven by the frame \
                              length prefix and Unix.select timeouts, and \
                              move sleeps/retries into the callers"
                             name)
                    | None -> ())
                | None -> ())
            | _ -> ());
            super.expr it e
          in
          let it = { super with expr } in
          it.structure it structure
        end);
  }

(* ------------------------------------------------------------------ *)
(* OBS02: ad-hoc console output inside the daemon and pool layers *)

(* The telemetry plane made lib/server and lib/parallel multi-writer:
   the event loop and every pool worker can emit diagnostics.  A bare
   [print_string]/[Printf.printf] bypasses the per-domain log buffers
   (interleaved bytes under contention), ignores the operator's
   --log-level / --log-json choice, and — on stdout — corrupts any
   machine-readable output the front end promised.  All output from
   these layers goes through [Obs.Log]. *)
let obs02_scopes = [ "lib/server"; "lib/parallel" ]

let console_writers =
  [
    ([ "print_string" ], "print_string");
    ([ "print_endline" ], "print_endline");
    ([ "print_newline" ], "print_newline");
    ([ "print_char" ], "print_char");
    ([ "prerr_string" ], "prerr_string");
    ([ "prerr_endline" ], "prerr_endline");
    ([ "prerr_newline" ], "prerr_newline");
    ([ "Printf"; "printf" ], "Printf.printf");
    ([ "Printf"; "eprintf" ], "Printf.eprintf");
    ([ "Format"; "printf" ], "Format.printf");
    ([ "Format"; "eprintf" ], "Format.eprintf");
    ([ "Format"; "print_string" ], "Format.print_string");
  ]

let obs02 =
  {
    id = "OBS02";
    (* lib/server and lib/parallel are linted cold, so the rule must not
       be hot-only to run there at all. *)
    hot_only = false;
    doc =
      "Direct console output (print_string, print_endline, Printf.printf, \
       Printf.eprintf, Format.printf, ...) inside lib/server or \
       lib/parallel. These layers run across domains and inside a daemon: \
       bare writes interleave bytes under contention, ignore the \
       operator's --log-level / --log-json configuration, and on stdout \
       corrupt machine-readable front-end output. Log through Obs.Log \
       (debug/info/warn/error with structured fields); the loop and the \
       pool flush the per-domain buffers at well-defined points.";
    check =
      (fun ctx structure ->
        if
          List.exists
            (fun scope -> contains_sub ~sub:scope ctx.display)
            obs02_scopes
        then begin
          let open Ast_iterator in
          let super = default_iterator in
          let expr it e =
            (match e.pexp_desc with
            | Pexp_ident _ -> (
                match path_of_expr e with
                | Some path -> (
                    match
                      List.find_opt (fun (p, _) -> p = path) console_writers
                    with
                    | Some (_, name) ->
                        report ctx ~loc:e.pexp_loc ~rule:"OBS02"
                          (Printf.sprintf
                             "`%s` writes to the console directly from the \
                              daemon/pool layer, bypassing the per-domain \
                              log buffers and the operator's log \
                              configuration; use Obs.Log.debug/info/warn/\
                              error with structured fields instead"
                             name)
                    | None -> ())
                | None -> ())
            | _ -> ());
            super.expr it e
          in
          let it = { super with expr } in
          it.structure it structure
        end);
  }

let () =
  List.iter register
    [
      para01; poly01; partial01; cmp01; csr02; alloc01; obs01; srv01;
      obs02;
    ]
