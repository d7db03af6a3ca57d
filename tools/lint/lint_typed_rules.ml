(* Typed (whole-program) lint rules.

   These run over the [Lint_program] representation rather than a single
   parsetree, so they can follow facts across function and module
   boundaries: each rule computes per-definition summaries to a fixpoint
   over the call graph ([Lint_dataflow.fixpoint]), then walks definition
   bodies forward, threading an abstract state through approximate
   evaluation order with joins at branches.

   Shipped rules:

   - PARA02   interprocedural escape of mutable state into Pool closures:
              a parallel closure that mutates captured or global state
              directly, through helper calls, aliases, or partial
              applications.
   - BOUNDS01 untrusted-read bounds: every [String.get_int64_le] /
              [get_int32_le] (and friends) must be dominated, within its
              function, by a length check that raises [Parse_error] —
              inline or via a checker helper such as [need] / [take].
   - ALLOC02  allocation (tuples, closures, boxing, allocating stdlib
              calls, transitively through helpers) reachable from a
              region marked [@lint.hot_loop].
   - POLY02   polymorphic comparison (compare, =, <, ... at a type that
              is neither immediate nor float, transitively through
              helpers) reachable from a region marked [@lint.hot_loop];
              and in the hot-path modules, [min] / [max] /
              [Hashtbl.hash] / the generic [Hashtbl.create] by resolved
              path, and a comparison escaping as a value at such a
              type.
   - SPAN01   [Obs.begin_span]/[end_span] pairing on all paths: branch
              arms must agree on the open-span count, loop bodies must be
              neutral, functions must exit balanced, and a raise must not
              cross an open span. *)

open Typedtree
module P = Lint_program

type ctx = { prog : P.t; mutable diags : Lint_diag.t list }

let report ctx ~file ~loc ~rule msg =
  ctx.diags <- Lint_diag.make ~file ~loc ~rule msg :: ctx.diags

type rule = { id : string; doc : string; check : ctx -> unit }

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* Positional view of application arguments: labels are dropped, so a
   callee's parameter index is matched by position.  Call sites in this
   codebase pass labelled arguments in declaration order, which keeps the
   approximation honest. *)
let positional_args args =
  List.filter_map (fun (_, a) -> a) args

let fold_children f init e =
  let acc = ref init in
  P.iter_child_exprs (fun c -> acc := f !acc c) e;
  !acc

(* ================================================================== *)
(* PARA02: interprocedural escape of mutable state into Pool closures  *)

type mut_target = Mparam of int | Mglobal of string

(* A summary maps each thing a definition mutates (one of its parameters,
   or a global) to a human-readable witness of how. *)
type para_summary = (mut_target * string) list

let para_add acc target witness =
  if List.mem_assoc target acc then acc else (target, witness) :: acc

let para_equal a b =
  let keys l = List.sort compare (List.map fst l) in
  keys a = keys b

(* Derivation roots of an expression's value: the parameter indices it
   may alias.  Projections (fields, match bindings) propagate roots;
   function results are treated as fresh, so containers built from a
   parameter-sized [create] do not count as aliases of the parameter. *)
let rec roots_of roots e =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
      Option.value (Hashtbl.find_opt roots (Ident.unique_name id)) ~default:[]
  | Texp_field (e', _, _) -> roots_of roots e'
  | Texp_ifthenelse (_, a, b) ->
      roots_of roots a
      @ (match b with Some b -> roots_of roots b | None -> [])
  | Texp_match (_, cases, _) ->
      List.concat_map (fun c -> roots_of roots c.c_rhs) cases
  | Texp_sequence (_, b) | Texp_let (_, _, b) -> roots_of roots b
  | Texp_tuple es | Texp_array es | Texp_construct (_, _, es) ->
      List.concat_map (roots_of roots) es
  | Texp_open (_, e') -> roots_of roots e'
  | _ -> []

let bind_roots roots rs pat =
  if rs <> [] then
    List.iter
      (fun id -> Hashtbl.replace roots (Ident.unique_name id) rs)
      (pat_bound_idents pat)

let para_witness_leaf what (d : P.def) loc =
  Printf.sprintf "%s at %s:%d" what d.unit_display (line_of loc)

(* Summary transfer: walk the definition's bodies tracking which locals
   alias which parameters, recording direct mutations and folding in
   callee summaries. *)
let para_transfer prog (d : P.def) ~get =
  let scope = P.scope_of prog d in
  let roots : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (id, i) -> Hashtbl.replace roots (Ident.unique_name id) [ i ])
    d.params;
  let acc = ref [] in
  let record_target ~what ~loc target =
    let witness = para_witness_leaf what d loc in
    match target.exp_desc with
    | Texp_ident (p, _, _) -> (
        match P.resolve scope p with
        | Some g -> if not (P.sanctioned_callee g) then
            acc := para_add !acc (Mglobal g) witness
        | None ->
            List.iter
              (fun i -> acc := para_add !acc (Mparam i) witness)
              (roots_of roots target))
    | _ ->
        List.iter
          (fun i -> acc := para_add !acc (Mparam i) witness)
          (roots_of roots target)
  in
  let callee_summary name pos =
    match P.def_of prog name with
    | Some callee when not (P.exempt_unit callee) ->
        List.iter
          (fun (target, w) ->
            let witness = Printf.sprintf "via %s: %s" name w in
            match target with
            | Mglobal g -> acc := para_add !acc (Mglobal g) witness
            | Mparam j -> (
                match List.nth_opt pos j with
                | None -> ()
                | Some arg -> (
                    let global =
                      match arg.exp_desc with
                      | Texp_ident (p, _, _) -> P.resolve scope p
                      | _ -> None
                    in
                    match global with
                    | Some g ->
                        if not (P.sanctioned_callee g) then
                          acc := para_add !acc (Mglobal g) witness
                    | None ->
                        List.iter
                          (fun i -> acc := para_add !acc (Mparam i) witness)
                          (roots_of roots arg))))
          (get name)
    | _ -> ()
  in
  let rec walk e =
    match e.exp_desc with
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            walk vb.vb_expr;
            bind_roots roots (roots_of roots vb.vb_expr) vb.vb_pat)
          vbs;
        walk body
    | Texp_match (scrut, cases, _) ->
        walk scrut;
        let rs = roots_of roots scrut in
        List.iter
          (fun c ->
            bind_roots roots rs c.c_lhs;
            Option.iter walk c.c_guard;
            walk c.c_rhs)
          cases
    | Texp_setfield (target, _, lbl, v) ->
        record_target
          ~what:
            (Printf.sprintf "record-field write `%s <-`" lbl.Types.lbl_name)
          ~loc:e.exp_loc target;
        walk target;
        walk v
    | Texp_apply (f, args) ->
        walk f;
        List.iter (fun (_, a) -> Option.iter walk a) args;
        let pos = positional_args args in
        (match P.head_name scope f with
        | None -> ()
        | Some name ->
            Option.iter
              (record_target
                 ~what:(Printf.sprintf "`%s`" (P.last2 name))
                 ~loc:e.exp_loc)
              (Option.bind (P.mutating_target name) (List.nth_opt pos));
            callee_summary name pos)
    | _ -> P.iter_child_exprs walk e
  in
  if not (P.exempt_unit d) then List.iter walk d.bodies;
  !acc

(* Origins a closure-local value may alias: names of captured variables
   or globals, for diagnostics.  Same propagation discipline as
   [roots_of]. *)
let rec origins_of scope locals origins e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match p with
      | Path.Pident id when Hashtbl.mem locals (Ident.unique_name id) ->
          Option.value
            (Hashtbl.find_opt origins (Ident.unique_name id))
            ~default:[]
      | _ -> (
          match P.resolve scope p with
          | Some g -> if P.sanctioned_callee g then [] else [ g ]
          | None -> (
              match p with
              | Path.Pident id -> [ Ident.name id ]
              | _ -> [])))
  | Texp_field (e', _, _) -> origins_of scope locals origins e'
  | Texp_ifthenelse (_, a, b) ->
      origins_of scope locals origins a
      @ (match b with Some b -> origins_of scope locals origins b | None -> [])
  | Texp_match (_, cases, _) ->
      List.concat_map (fun c -> origins_of scope locals origins c.c_rhs) cases
  | Texp_sequence (_, b) | Texp_let (_, _, b) ->
      origins_of scope locals origins b
  | Texp_tuple es | Texp_array es | Texp_construct (_, _, es) ->
      List.concat_map (origins_of scope locals origins) es
  | Texp_open (_, e') -> origins_of scope locals origins e'
  | _ -> []

let para_flag ctx (d : P.def) ~loc origin witness =
  report ctx ~file:d.unit_display ~loc ~rule:"PARA02"
    (Printf.sprintf
       "parallel closure mutates shared state reachable from `%s` (%s); the \
        Pool contract allows only disjoint writes to shared arrays — use \
        Atomic / per-domain state, or suppress with `lint: allow PARA02` if \
        accesses are provably disjoint"
       origin witness)

(* Check one closure literal handed to a Pool entry point. *)
let para_check_closure ctx summaries (d : P.def) closure =
  let scope = P.scope_of ctx.prog d in
  let locals : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let origins : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let add_locals pat =
    List.iter
      (fun id -> Hashtbl.replace locals (Ident.unique_name id) ())
      (pat_bound_idents pat)
  in
  let bind_origins os pat =
    if os <> [] then
      List.iter
        (fun id -> Hashtbl.replace origins (Ident.unique_name id) os)
        (pat_bound_idents pat)
  in
  let check_target ~what ~loc target =
    let os = origins_of scope locals origins target in
    match os with
    | [] -> ()
    | origin :: _ ->
        para_flag ctx d ~loc origin
          (Printf.sprintf "%s at %s:%d" what d.unit_display (line_of loc))
  in
  let summary_of name =
    match Hashtbl.find_opt summaries name with Some s -> s | None -> []
  in
  let rec walk e =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            add_locals c.c_lhs;
            Option.iter walk c.c_guard;
            walk c.c_rhs)
          cases
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            walk vb.vb_expr;
            bind_origins (origins_of scope locals origins vb.vb_expr) vb.vb_pat;
            add_locals vb.vb_pat)
          vbs;
        walk body
    | Texp_match (scrut, cases, _) ->
        walk scrut;
        let os = origins_of scope locals origins scrut in
        List.iter
          (fun c ->
            bind_origins os c.c_lhs;
            add_locals c.c_lhs;
            Option.iter walk c.c_guard;
            walk c.c_rhs)
          cases
    | Texp_for (id, _, a, b, _, body) ->
        Hashtbl.replace locals (Ident.unique_name id) ();
        walk a;
        walk b;
        walk body
    | Texp_setfield (target, _, lbl, v) ->
        check_target
          ~what:
            (Printf.sprintf "record-field write `%s <-`" lbl.Types.lbl_name)
          ~loc:e.exp_loc target;
        walk target;
        walk v
    | Texp_apply (f, args) ->
        walk f;
        List.iter (fun (_, a) -> Option.iter walk a) args;
        let pos = positional_args args in
        (match P.head_name scope f with
        | None -> ()
        | Some name -> (
            Option.iter
              (check_target
                 ~what:(Printf.sprintf "`%s`" (P.last2 name))
                 ~loc:e.exp_loc)
              (Option.bind (P.mutating_target name) (List.nth_opt pos));
            match P.def_of ctx.prog name with
            | Some callee when not (P.exempt_unit callee) ->
                List.iter
                  (fun (target, w) ->
                    match target with
                    | Mglobal g ->
                        para_flag ctx d ~loc:e.exp_loc g
                          (Printf.sprintf "via %s: %s" name w)
                    | Mparam j -> (
                        match
                          Option.map
                            (origins_of scope locals origins)
                            (List.nth_opt pos j)
                        with
                        | Some (origin :: _) ->
                            para_flag ctx d ~loc:e.exp_loc origin
                              (Printf.sprintf "via %s: %s" name w)
                        | Some [] | None -> ()))
                  (summary_of name)
            | _ -> ()))
    | _ -> P.iter_child_exprs walk e
  in
  walk closure

(* Check a non-closure argument (bare function, partial application): the
   argument is evaluated once, so anything it closes over — including the
   values already applied — is shared across all iterations. *)
let para_check_fn_arg ctx summaries (d : P.def) arg =
  let scope = P.scope_of ctx.prog d in
  let is_function e =
    match Types.get_desc e.exp_type with
    | Types.Tarrow _ -> true
    | _ -> false
  in
  if is_function arg then begin
    let head, applied =
      match arg.exp_desc with
      | Texp_apply (f, args) -> (f, positional_args args)
      | _ -> (arg, [])
    in
    match P.head_name scope head with
    | Some name when P.def_of ctx.prog name <> None -> (
        match Hashtbl.find_opt summaries name with
        | Some summary ->
            List.iter
              (fun (target, w) ->
                match target with
                | Mglobal g ->
                    para_flag ctx d ~loc:arg.exp_loc g
                      (Printf.sprintf "via %s: %s" name w)
                | Mparam j when j < List.length applied ->
                    para_flag ctx d ~loc:arg.exp_loc
                      (Printf.sprintf "%s (argument %d of %s)"
                         "partially applied value" j name)
                      (Printf.sprintf
                         "the value is bound once and shared by every \
                          iteration; via %s: %s"
                         name w)
                | Mparam _ -> ())
              summary
        | None -> ())
    | _ -> ()
  end

let para02 =
  {
    id = "PARA02";
    doc =
      "Interprocedural escape of mutable state into Pool.parallel_for / \
       parallel_map closures: mutation of captured or global state through \
       helper functions, aliases (let-bound projections of captured \
       values), or partial applications. Computed from per-function \
       mutation summaries over the whole-program call graph; Atomic / \
       Mutex / per-domain Obs state is sanctioned.";
    check =
      (fun ctx ->
        let summaries =
          Lint_dataflow.fixpoint ~keys:(P.def_keys ctx.prog)
            ~deps:(fun k -> P.callees ctx.prog k)
            ~init:(fun _ -> [])
            ~transfer:(fun k ~get ->
              match P.def_of ctx.prog k with
              | Some d -> para_transfer ctx.prog d ~get
              | None -> [])
            ~equal:para_equal
        in
        P.iter_defs ctx.prog (fun d ->
            let scope = P.scope_of ctx.prog d in
            List.iter
              (P.iter_expr_deep (fun e ->
                   match e.exp_desc with
                   | Texp_apply (f, args) -> (
                       match P.head_name scope f with
                       | Some n when P.is_pool_entry n ->
                           List.iter
                             (fun (_, a) ->
                               match a with
                               | Some ({ exp_desc = Texp_function _; _ } as c)
                                 ->
                                   para_check_closure ctx summaries d c
                               | Some a -> para_check_fn_arg ctx summaries d a
                               | None -> ())
                             args
                       | _ -> ())
                   | _ -> ()))
              d.bodies));
  }

(* ================================================================== *)
(* BOUNDS01: untrusted reads must be dominated by a length check       *)

let read_fns =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun sz ->
          List.map
            (fun e -> Printf.sprintf "%s.get_%s_%s" m sz e)
            [ "le"; "be"; "ne" ])
        [ "int16"; "uint16"; "int32"; "int64" ])
    [ "String"; "Bytes" ]

let is_read_fn name = List.mem (P.normalize name) read_fns

let mentions_length scope e =
  P.exists_expr
    (fun e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
          match P.resolve scope p with
          | Some n ->
              let n = P.last2 n in
              n = "String.length" || n = "Bytes.length"
          | None -> false)
      | _ -> false)
    e

(* Summary: (raises Parse_error, is a checker).  A definition raises
   Parse_error when its body constructs that exception (directly or via a
   callee); it is a checker when it contains an [if] whose condition
   consults the input length and whose branch raises Parse_error. *)
let bounds_transfer prog (d : P.def) ~get =
  let scope = P.scope_of prog d in
  let mentions_pe e =
    P.exists_expr
      (fun e ->
        match e.exp_desc with
        | Texp_construct (_, cd, _) -> cd.Types.cstr_name = "Parse_error"
        | Texp_ident (p, _, _) -> (
            match P.resolve scope p with
            | Some n -> fst (get n)
            | None -> false)
        | _ -> false)
      e
  in
  let raises_pe = List.exists mentions_pe d.bodies in
  let checker =
    List.exists
      (P.exists_expr (fun e ->
           match e.exp_desc with
           | Texp_ifthenelse (c, t, eo) ->
               mentions_length scope c
               && (mentions_pe t
                  || match eo with Some e -> mentions_pe e | None -> false)
           | _ -> false))
      d.bodies
  in
  (raises_pe, checker)

let bounds_check ctx summaries (d : P.def) =
  let scope = P.scope_of ctx.prog d in
  let raises_pe name =
    match Hashtbl.find_opt summaries name with
    | Some (r, _) -> r
    | None -> false
  in
  let is_checker name =
    match Hashtbl.find_opt summaries name with
    | Some (_, c) -> c
    | None -> false
  in
  let branch_raises e =
    P.exists_expr
      (fun e ->
        match e.exp_desc with
        | Texp_construct (_, cd, _) -> cd.Types.cstr_name = "Parse_error"
        | Texp_ident (p, _, _) -> (
            match P.resolve scope p with
            | Some n -> raises_pe n
            | None -> false)
        | _ -> false)
      e
  in
  (* Forward walk with a monotone "a dominating length check has been
     seen in this function" flag: established by an [if] whose condition
     consults the length and whose branch raises Parse_error, or by a
     call to a checker helper. *)
  let rec go g e =
    match e.exp_desc with
    | Texp_ifthenelse (c, t, eo) ->
        let gc = go g c in
        let cond_len = mentions_length scope c in
        let gb = gc || cond_len in
        ignore (go gb t);
        Option.iter (fun e -> ignore (go gb e)) eo;
        gc
        || cond_len
           && (branch_raises t
              || match eo with Some e -> branch_raises e | None -> false)
    | Texp_match (scrut, cases, _) ->
        let g0 = go g scrut in
        List.iter
          (fun c ->
            Option.iter (fun gd -> ignore (go g0 gd)) c.c_guard;
            ignore (go g0 c.c_rhs))
          cases;
        g0
    | Texp_try (body, handlers) ->
        ignore (go g body);
        List.iter (fun c -> ignore (go g c.c_rhs)) handlers;
        g
    | Texp_while (c, body) ->
        let gc = go g c in
        ignore (go gc body);
        gc
    | Texp_for (_, _, a, b, _, body) ->
        let g' = go (go g a) b in
        ignore (go g' body);
        g'
    | Texp_function { cases; _ } ->
        (* Closures inherit the state at their creation point: the
           [Array.init]-under-guard idiom of the io readers. *)
        List.iter (fun c -> ignore (go g c.c_rhs)) cases;
        g
    | Texp_apply (f, args) ->
        let g' =
          List.fold_left
            (fun g (_, a) -> match a with Some a -> go g a | None -> g)
            (go g f) args
        in
        (match P.head_name scope f with
        | Some name when is_read_fn name ->
            if not g then
              report ctx ~file:d.unit_display ~loc:e.exp_loc ~rule:"BOUNDS01"
                (Printf.sprintf
                   "`%s` reads untrusted bytes with no dominating bounds \
                    check in this function; compare against String.length \
                    and raise Parse_error (directly or via a checker helper \
                    like `need`) before the read"
                   (P.normalize name));
            g'
        | Some name when is_checker name -> true
        | _ -> g')
    | _ -> fold_children go g e
  in
  List.iter (fun b -> ignore (go false b)) d.bodies

let bounds01 =
  {
    id = "BOUNDS01";
    doc =
      "Untrusted-read bounds in binary snapshot parsers: every \
       String/Bytes get_int64_le / get_int32_le / get_int16_le read must \
       be dominated, within its function, by a length check that raises \
       Parse_error — an inline `if ... > String.length s then bad ...` or \
       a call to a checker helper (`need`, Graph_io's cursor `take`, ...). \
       Checker status is computed interprocedurally, so helper-based \
       parsers are understood.";
    check =
      (fun ctx ->
        let summaries =
          Lint_dataflow.fixpoint ~keys:(P.def_keys ctx.prog)
            ~deps:(fun k -> P.callees ctx.prog k)
            ~init:(fun _ -> (false, false))
            ~transfer:(fun k ~get ->
              match P.def_of ctx.prog k with
              | Some d -> bounds_transfer ctx.prog d ~get
              | None -> (false, false))
            ~equal:( = )
        in
        P.iter_defs ctx.prog (fun d -> bounds_check ctx summaries d));
  }

(* ================================================================== *)
(* ALLOC02: allocation reachable from [@lint.hot_loop] regions         *)

(* Stdlib entry points that allocate on every call: container builders,
   list/array transformers, string builders, boxed-integer and float
   conversions, printf. *)
let allocator_exact =
  [
    "Array.make"; "Array.init"; "Array.copy"; "Array.append"; "Array.concat";
    "Array.sub"; "Array.of_list"; "Array.to_list"; "Array.map"; "Array.mapi";
    "Array.map2"; "Array.of_seq"; "Array.to_seq"; "Array.split";
    "Array.combine"; "Array.make_matrix";
    "List.map"; "List.mapi"; "List.init"; "List.rev"; "List.append";
    "List.concat"; "List.concat_map"; "List.filter"; "List.filter_map";
    "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq";
    "List.rev_map"; "List.rev_append"; "List.of_seq"; "List.to_seq";
    "List.split"; "List.combine"; "List.merge"; "List.flatten"; "List.cons";
    "String.make"; "String.init"; "String.sub"; "String.concat"; "String.cat";
    "String.split_on_char"; "String.trim"; "String.escaped";
    "String.uppercase_ascii"; "String.lowercase_ascii";
    "String.capitalize_ascii"; "String.of_bytes"; "String.to_bytes";
    "Bytes.create"; "Bytes.make"; "Bytes.init"; "Bytes.copy"; "Bytes.sub";
    "Bytes.of_string"; "Bytes.to_string"; "Bytes.extend"; "Bytes.cat";
    "Option.some"; "Option.map"; "Option.bind";
    "ref"; "^"; "@"; "float_of_int"; "float_of_string"; "string_of_int";
    "string_of_float"; "float_of_string_opt"; "int_of_string_opt";
  ]

let boxed_int_module m = m = "Int64" || m = "Int32" || m = "Nativeint"

let nonallocating_boxed_fn =
  [ "to_int"; "unsigned_to_int"; "compare"; "equal"; "unsigned_compare" ]

let container_allocating_fn =
  [
    "create"; "copy"; "add"; "push"; "replace"; "remove"; "of_seq"; "to_seq";
    "add_char"; "add_string"; "add_bytes"; "add_substring"; "add_buffer";
    "contents"; "to_bytes"; "add_seq"; "replace_seq";
  ]

let allocating_external name =
  let name = P.normalize name in
  List.mem name allocator_exact
  ||
  match List.rev (P.split_name name) with
  | fn :: m :: _ when boxed_int_module m -> not (List.mem fn nonallocating_boxed_fn)
  | fn :: m :: _ when m = "Float" -> not (List.mem fn [ "to_int"; "compare"; "equal"; "is_nan" ])
  | _ :: m :: _ when m = "Printf" || m = "Format" || m = "Seq" -> true
  | fn :: m :: _ when P.mutating_container m ->
      List.mem fn container_allocating_fn
  | _ -> false

let alloc_witness_of_construct e =
  match e.exp_desc with
  | Texp_function _ -> Some "closure allocation"
  | Texp_tuple _ -> Some "tuple construction"
  | Texp_record _ -> Some "record construction"
  | Texp_construct (_, cd, args) when args <> [] ->
      Some (Printf.sprintf "`%s` constructor allocation" cd.Types.cstr_name)
  | Texp_array (_ :: _) -> Some "array literal allocation"
  | Texp_lazy _ -> Some "lazy thunk allocation"
  | _ -> None

let is_raise_apply scope e =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
      match P.head_name scope f with
      | Some n -> P.is_raise_name (P.normalize n)
      | None -> false)
  | Texp_assert _ -> true
  | _ -> false

(* A hot-loop rule: what it finds at one node of a body ([local]), what
   it finds in a call to a named function outside the program ([call]),
   and how it reports a finding inside a marked region ([message]).
   ALLOC02 and POLY02 share the reachability below: a per-definition
   summary over the call graph, then a walk of each marked region. *)
type hot_rule = {
  hot_id : string;
  local : expression -> string option;
  call : string -> string option;
  message : string -> string;
}

(* Does executing this (already-stripped) body reach a finding?  Error
   paths (always-raising applications) and metrics-gated branches are
   skipped: raising is already the slow path, and
   [if Obs.metrics_on () then ...] only runs with observability switched
   on. *)
let hot_scan hr prog scope ~get bodies =
  let found = ref None in
  let note w = if !found = None then found := Some w in
  let rec walk e =
    if !found = None then begin
      if is_raise_apply scope e then ()
      else
        match hr.local e with
        | Some w -> note (Printf.sprintf "%s at line %d" w (line_of e.exp_loc))
        | None -> (
            match e.exp_desc with
            | Texp_ifthenelse (c, t, eo) ->
                if P.is_metrics_gate scope c then Option.iter walk eo
                else begin
                  walk c;
                  walk t;
                  Option.iter walk eo
                end
            | Texp_apply (f, args) ->
                walk f;
                List.iter (fun (_, a) -> Option.iter walk a) args;
                if !found = None then (
                  match P.head_name scope f with
                  | Some name when P.sanctioned_callee name -> ()
                  | Some name when hr.call name <> None ->
                      Option.iter
                        (fun w ->
                          note (Printf.sprintf "%s at line %d" w (line_of e.exp_loc)))
                        (hr.call name)
                  | Some name when P.def_of prog name <> None -> (
                      match get name with
                      | Some w ->
                          note (Printf.sprintf "via %s: %s" name w)
                      | None -> ())
                  | _ -> ())
            | _ -> P.iter_child_exprs walk e)
    end
  in
  List.iter walk bodies;
  !found

let hot_transfer hr prog (d : P.def) ~get =
  if P.exempt_unit d then None
  else hot_scan hr prog (P.scope_of prog d) ~get d.bodies

(* Report every finding inside a marked region.  Local helper functions
   defined in the enclosing definition (outside the region) are analyzed
   through [local_fns]; module-level callees through the global
   summaries. *)
let hot_check hr ctx summaries (d : P.def) =
  let scope = P.scope_of ctx.prog d in
  let local_fns : (string, expression) Hashtbl.t = Hashtbl.create 16 in
  let local_summary_cache : (string, string option) Hashtbl.t =
    Hashtbl.create 16
  in
  let get_global name = Hashtbl.find_opt summaries name |> Option.join in
  let local_summary uname =
    match Hashtbl.find_opt local_summary_cache uname with
    | Some s -> s
    | None ->
        (* Break self-recursion before descending. *)
        Hashtbl.replace local_summary_cache uname None;
        let s =
          match Hashtbl.find_opt local_fns uname with
          | Some rhs ->
              let _, _, bodies = P.split_params rhs in
              hot_scan hr ctx.prog scope
                ~get:(fun n -> get_global n)
                bodies
          | None -> None
        in
        Hashtbl.replace local_summary_cache uname s;
        s
  in
  let flag ~loc w =
    report ctx ~file:d.unit_display ~loc ~rule:hr.hot_id (hr.message w)
  in
  let rec walk ~marked e =
    let marked = marked || P.has_attr P.hot_loop_attr e.exp_attributes in
    if marked then begin
      if is_raise_apply scope e then ()
      else begin
        (match hr.local e with
        | Some w -> flag ~loc:e.exp_loc w
        | None -> ());
        match e.exp_desc with
        | Texp_ifthenelse (c, t, eo) ->
            if P.is_metrics_gate scope c then
              Option.iter (walk ~marked) eo
            else begin
              walk ~marked c;
              walk ~marked t;
              Option.iter (walk ~marked) eo
            end
        | Texp_apply (f, args) ->
            walk ~marked f;
            List.iter (fun (_, a) -> Option.iter (walk ~marked) a) args;
            (match P.head_name scope f with
            | Some name when P.sanctioned_callee name -> ()
            | Some name when hr.call name <> None ->
                Option.iter (flag ~loc:e.exp_loc) (hr.call name)
            | Some name when P.def_of ctx.prog name <> None -> (
                match get_global name with
                | Some w -> flag ~loc:e.exp_loc (Printf.sprintf "via %s: %s" name w)
                | None -> ())
            | Some _ | None -> (
                (* Local helper call: [f] is an unresolved ident bound in
                   this definition. *)
                match f.exp_desc with
                | Texp_ident (Path.Pident id, _, _) -> (
                    match local_summary (Ident.unique_name id) with
                    | Some w ->
                        flag ~loc:e.exp_loc
                          (Printf.sprintf "via local `%s`: %s" (Ident.name id)
                             w)
                    | None -> ())
                | _ -> ()))
        | Texp_let (_, vbs, body) ->
            List.iter
              (fun vb ->
                record_local vb;
                walk ~marked vb.vb_expr)
              vbs;
            walk ~marked body
        | _ -> P.iter_child_exprs (walk ~marked) e
      end
    end
    else
      match e.exp_desc with
      | Texp_let (_, vbs, body) ->
          List.iter
            (fun vb ->
              record_local vb;
              walk ~marked vb.vb_expr)
            vbs;
          walk ~marked body
      | _ -> P.iter_child_exprs (walk ~marked) e
  and record_local vb =
    match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
    | Tpat_var (id, _), Texp_function _ ->
        Hashtbl.replace local_fns (Ident.unique_name id) vb.vb_expr
    | _ -> ()
  in
  let def_marked = P.has_attr P.hot_loop_attr d.vb_attrs in
  List.iter (walk ~marked:def_marked) d.bodies

let hot_rule_check hr ctx =
  let summaries =
    Lint_dataflow.fixpoint ~keys:(P.def_keys ctx.prog)
      ~deps:(fun k -> P.callees ctx.prog k)
      ~init:(fun _ -> None)
      ~transfer:(fun k ~get ->
        match P.def_of ctx.prog k with
        | Some d -> hot_transfer hr ctx.prog d ~get
        | None -> None)
      ~equal:(fun a b -> (a = None) = (b = None))
  in
  P.iter_defs ctx.prog (fun d -> hot_check hr ctx summaries d)

let alloc02 =
  let hr =
    {
      hot_id = "ALLOC02";
      local = alloc_witness_of_construct;
      call =
        (fun name ->
          if allocating_external name then
            Some (Printf.sprintf "call to `%s` (allocates)" (P.normalize name))
          else None);
      message =
        Printf.sprintf
          "allocation in a [@lint.hot_loop] region: %s; hot loops are \
           contractually allocation-free — hoist the allocation out of the \
           loop, use flat arrays / toplevel recursion, or suppress with \
           `lint: allow ALLOC02` with a justification";
    }
  in
  {
    id = "ALLOC02";
    doc =
      "Allocation reachable from a region marked [@lint.hot_loop] (on a \
       binding or an expression): tuples, records, non-constant \
       constructors, closures, array literals, boxed int64/int32/float \
       conversions, allocating stdlib calls, and — transitively, through \
       per-function summaries over the call graph — any helper whose body \
       allocates. Error paths (raise/failwith/invalid_arg) and \
       metrics-gated branches (if Obs.metrics_on () then ...) are \
       exempt.";
    check = hot_rule_check hr;
  }

(* ================================================================== *)
(* POLY02: polymorphic comparison reachable from [@lint.hot_loop]      *)

let comparison_names = [ "compare"; "="; "<>"; "<"; "<="; ">"; ">=" ]

(* The types at which ocamlopt compiles a comparison to an inline
   integer or float test: [int], [char], [bool], [unit], [float], and a
   type whose declaration is immediate.  Anything else — a type variable
   above all, as in a helper left polymorphic — goes through
   [caml_compare] or one of its siblings, a C call per test. *)
let specialised_at (e : expression) ty =
  let ty = try Ctype.expand_head e.exp_env ty with _ -> ty in
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> (
      List.exists (Path.same p)
        [ Predef.path_int; Predef.path_char; Predef.path_bool;
          Predef.path_unit; Predef.path_float ]
      ||
      match Env.find_type p e.exp_env with
      | decl -> decl.type_immediate <> Type_immediacy.Unknown
      | exception _ -> false)
  | _ -> false

let poly_comparison_witness (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
      match P.split_name (P.normalize (Path.name p)) with
      | [ op ] when List.mem op comparison_names -> (
          match Types.get_desc e.exp_type with
          | Tarrow (_, arg, _, _) when not (specialised_at e arg) ->
              Some
                (Format.asprintf "`%s` at type %a" op Printtyp.type_expr arg)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* The hot-module half of POLY02: in a unit under
   [Lint_rules.hot_prefixes], the primitives that are polymorphic whatever
   their operands, and a comparison that is not fully applied — it escapes
   as a function value, so nothing specialises the calls it makes — at a
   type [specialised_at] does not accept.  Names are resolved, so a module
   alias or an [open] is seen through and a local rebinding is not
   flagged. *)
let hot_primitive_message = function
  | ("min" | "max") as name ->
      Some
        (Printf.sprintf
           "`%s` dispatches through polymorphic compare on every call (it is \
            never specialised); use a typed version: Mono.i%s for ints, \
            Float.%s for floats"
           name name name)
  | "Hashtbl.hash" | "Hashtbl.seeded_hash" ->
      Some
        "Hashtbl.hash is a polymorphic structure walk and its result varies \
         across OCaml versions; hash the key monomorphically (e.g. an FNV-1a \
         string hash, or the int itself)"
  | "Hashtbl.create" ->
      Some
        "polymorphic `Hashtbl.create` in a hot-path module; use a keyed table \
         with monomorphic hash/equal (Mono.Itbl, Mono.Ptbl, Mono.Stbl, or a \
         local Hashtbl.Make)"
  | _ -> None

let hot_module_check ctx (u : Lint_cmt.unit_info) =
  let scope = P.scope_of_unit ctx.prog u in
  let check_ident e ~applied =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
        let flag msg =
          report ctx ~file:u.display ~loc:e.exp_loc ~rule:"POLY02" msg
        in
        match P.resolve scope p with
        | None -> ()
        | Some name -> (
            match hot_primitive_message name with
            | Some msg -> flag msg
            | None ->
                if applied < 2 && List.mem name comparison_names then
                  Option.iter
                    (fun w ->
                      flag
                        (Printf.sprintf
                           "%s escapes as a function value in a hot-path \
                            module, so every call it makes runs caml_compare; \
                            pass a monomorphic comparison (Int.compare, \
                            String.equal, ...) instead"
                           w))
                    (poly_comparison_witness e)))
    | _ -> ()
  in
  let expr it e =
    match e.exp_desc with
    | Texp_apply (({ exp_desc = Texp_ident _; _ } as f), args) ->
        check_ident f ~applied:(List.length (positional_args args));
        List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
    | Texp_ident _ -> check_ident e ~applied:0
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it u.str

let poly02 =
  let hr =
    {
      hot_id = "POLY02";
      local = poly_comparison_witness;
      call = (fun _ -> None);
      message =
        Printf.sprintf
          "polymorphic comparison in a [@lint.hot_loop] region: %s; it \
           compiles to a runtime call (caml_compare or a sibling) per test — \
           give the operands an immediate or float type (annotate the \
           helper's parameters), or suppress with `lint: allow POLY02` with \
           a justification";
    }
  in
  {
    id = "POLY02";
    doc =
      "Polymorphic comparison reachable from a region marked \
       [@lint.hot_loop]: compare, =, <>, <, <=, > or >= instantiated at a \
       type that is not immediate (int, char, bool, unit, a constant-only \
       variant) or float, found directly and — through the same \
       per-function summaries as ALLOC02 — in any helper the region calls. \
       A helper whose parameters were left unannotated is generalised, and \
       its comparisons then call caml_compare on every test. Error paths \
       and metrics-gated branches are exempt. In a hot-path module ("
      ^ String.concat ", " Lint_rules.hot_prefixes
      ^ ") it also flags, by resolved path, min, max, Hashtbl.hash / \
         seeded_hash and the generic Hashtbl.create (use Mono.imin, an \
         FNV-1a hash, a keyed Hashtbl.Make table such as Mono.Itbl), and a \
         comparison that escapes as a value (Array.sort compare, a partial \
         application) at such a type.";
    check =
      (fun ctx ->
        hot_rule_check hr ctx;
        List.iter
          (fun (u : Lint_cmt.unit_info) ->
            if Lint_driver.in_scope u.display (Under Lint_rules.hot_prefixes)
            then hot_module_check ctx u)
          ctx.prog.units);
  }

(* ================================================================== *)
(* SPAN01: Obs.begin_span / end_span pairing on all paths              *)

let span_kind scope f =
  match P.head_name scope f with
  | Some n -> (
      match P.last2 n with
      | "Obs.begin_span" -> `Begin
      | "Obs.end_span" -> `End
      | n' -> if P.is_raise_name (P.normalize n') || P.is_raise_name n' then `Raise else `Other)
  | None -> `Other

let rec always_raises scope e =
  match e.exp_desc with
  | Texp_apply (f, _) -> span_kind scope f = `Raise
  | Texp_sequence (a, b) -> always_raises scope a || always_raises scope b
  | Texp_let (_, _, b) -> always_raises scope b
  | Texp_match (_, cases, _) ->
      cases <> [] && List.for_all (fun c -> always_raises scope c.c_rhs) cases
  | Texp_ifthenelse (_, t, Some e) ->
      always_raises scope t && always_raises scope e
  | _ -> false

let span_check ctx (d : P.def) =
  let scope = P.scope_of ctx.prog d in
  let flag ~loc msg = report ctx ~file:d.unit_display ~loc ~rule:"SPAN01" msg in
  let join ~loc entry branches =
    (* Branches that always raise have no fall-through; the raise-with-
       open-span case is flagged at the raise itself. *)
    let outs =
      List.filter_map
        (fun (b, out) -> if always_raises scope b then None else Some out)
        branches
    in
    match outs with
    | [] -> entry
    | o :: rest ->
        if List.exists (fun o' -> o' <> o) rest then
          flag ~loc
            "span balance differs across branches: every branch must open \
             and close the same number of Obs spans";
        o
  in
  let rec go bal e =
    match e.exp_desc with
    | Texp_apply (f, args) -> (
        let bal =
          List.fold_left
            (fun b (_, a) -> match a with Some a -> go b a | None -> b)
            bal args
        in
        match span_kind scope f with
        | `Begin -> bal + 1
        | `End ->
            if bal <= 0 then begin
              flag ~loc:e.exp_loc
                "Obs.end_span without a matching begin_span on this path";
              0
            end
            else bal - 1
        | `Raise ->
            if bal > 0 then
              flag ~loc:e.exp_loc
                (Printf.sprintf
                   "raise crosses %d open Obs span(s): close the span before \
                    raising (or hoist the check above begin_span)"
                   bal);
            bal
        | `Other -> bal)
    | Texp_ifthenelse (c, t, eo) ->
        let b0 = go bal c in
        let bt = go b0 t in
        let branches =
          match eo with
          | Some e -> [ (t, bt); (e, go b0 e) ]
          | None -> [ (t, bt); (c, b0) ]
        in
        join ~loc:e.exp_loc b0 branches
    | Texp_match (scrut, cases, _) ->
        let b0 = go bal scrut in
        let branches =
          List.map
            (fun c ->
              Option.iter (fun g -> ignore (go b0 g)) c.c_guard;
              (c.c_rhs, go b0 c.c_rhs))
            cases
        in
        join ~loc:e.exp_loc b0 branches
    | Texp_try (body, handlers) ->
        let bb = go bal body in
        let branches =
          (body, bb)
          :: List.map (fun c -> (c.c_rhs, go bal c.c_rhs)) handlers
        in
        join ~loc:e.exp_loc bal branches
    | Texp_while (c, body) ->
        let bc = go bal c in
        let bout = go bc body in
        if bout <> bc then
          flag ~loc:e.exp_loc
            "loop body changes the open Obs span count: begin_span/end_span \
             inside a loop must pair within one iteration";
        bc
    | Texp_for (_, _, a, b, _, body) ->
        let b0 = go (go bal a) b in
        let bout = go b0 body in
        if bout <> b0 then
          flag ~loc:e.exp_loc
            "loop body changes the open Obs span count: begin_span/end_span \
             inside a loop must pair within one iteration";
        b0
    | Texp_function { cases; _ } ->
        List.iter
          (fun c ->
            Option.iter (fun g -> ignore (go 0 g)) c.c_guard;
            let out = go 0 c.c_rhs in
            if out <> 0 then
              flag ~loc:c.c_rhs.exp_loc
                (Printf.sprintf
                   "closure exits with %d unclosed Obs span(s): begin_span \
                    and end_span must pair lexically"
                   out))
          cases;
        bal
    | Texp_sequence (a, b) -> go (go bal a) b
    | Texp_let (_, vbs, body) ->
        let b0 =
          List.fold_left (fun b vb -> go b vb.vb_expr) bal vbs
        in
        go b0 body
    | _ -> fold_children go bal e
  in
  if not (Lint_driver.contains_sub ~sub:"lib/obs" d.unit_display) then
    List.iter
      (fun body ->
        let out = go 0 body in
        if out <> 0 then
          flag ~loc:d.loc
            (Printf.sprintf
               "function exits with %d unclosed Obs span(s): begin_span and \
                end_span must pair lexically on every path"
               out))
      d.bodies

let span01 =
  {
    id = "SPAN01";
    doc =
      "Obs.begin_span / end_span pairing on all paths: branch arms must \
       leave the same number of spans open, loop bodies must be \
       span-neutral, functions and closures must exit balanced, and a \
       raise must not cross an open span (the exception edge would leak \
       it). Calls are assumed non-raising — wrap risky regions in \
       Obs.span instead.";
    check = (fun ctx -> P.iter_defs ctx.prog (fun d -> span_check ctx d));
  }

(* ================================================================== *)

let all_rules () =
  List.sort (fun a b -> String.compare a.id b.id)
    [ para02; bounds01; alloc02; poly02; span01 ]
