(* Whole-program representation for the typed lint tier.

   Built from a list of typed compilation units, this module exposes the
   three things the interprocedural rules need:

   - a table of definitions: every module-level [let] (including those in
     nested structures), keyed by its fully qualified name
     ("Grail.query", "Mono.Itbl" members excepted — functor applications
     are opaque),
   - def/use resolution: a [Path.t] occurring inside a unit maps back to
     the definition it references, across units (all libraries are
     [wrapped false], so unit names are module names), and
   - a call graph over those definitions, for summary fixpoints.

   Name resolution is by identifier stamp inside a unit and by unit name
   across units; external names (stdlib and friends) resolve to their
   qualified path with a leading "Stdlib." dropped, so rules can match
   "Hashtbl.add" or "String.get_int64_le" directly. *)

open Typedtree

type def = {
  key : string;  (** fully qualified name, e.g. ["Grail.query"] *)
  modname : string;  (** unit the definition lives in *)
  unit_display : string;
  loc : Location.t;
  params : (Ident.t * int) list;
      (** binders of the leading parameter chain, with their positional
          index (a tuple pattern contributes several binders with one
          index) *)
  arity : int;
  bodies : expression list;
      (** the function body after stripping the parameter chain; several
          when the last binder is a multi-case [function] *)
  vb_attrs : Parsetree.attributes;
}

type entry = Val of string | Mod of string

type t = {
  units : Lint_cmt.unit_info list;
  defs : (string, def) Hashtbl.t;
  def_order : string list;  (** stable order for deterministic iteration *)
  envs : (string, (string, entry) Hashtbl.t) Hashtbl.t;
      (** per-unit ident environments, keyed by unit modname *)
  calls : (string, string list) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Traversal helpers shared by the rules *)

(* Apply [f] to each direct child expression of [e], without recursing:
   the default iterator visits children when handed a hook that does not
   recurse further. *)
let iter_child_exprs f e =
  let it =
    { Tast_iterator.default_iterator with expr = (fun _ c -> f c) }
  in
  Tast_iterator.default_iterator.expr it e

(* Apply [f] to every expression in [e]'s subtree, [e] included. *)
let iter_expr_deep f e =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e

let exists_expr pred e =
  let found = ref false in
  iter_expr_deep (fun e -> if pred e then found := true) e;
  !found

(* Strip the leading chain of single-case [fun] binders off a binding's
   expression.  Stops at a multi-case [function], whose case patterns
   become the last parameter and whose case bodies are all returned. *)
let split_params expr =
  let rec go idx params e =
    match e.exp_desc with
    | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
        let binders =
          List.map (fun id -> (id, idx)) (pat_bound_idents c_lhs)
        in
        go (idx + 1) (params @ binders) c_rhs
    | Texp_function { cases; _ } when cases <> [] ->
        let binders =
          List.concat_map
            (fun c -> List.map (fun id -> (id, idx)) (pat_bound_idents c.c_lhs))
            cases
        in
        (params @ binders, idx + 1, List.map (fun c -> c.c_rhs) cases)
    | _ -> (params, idx, [ e ])
  in
  go 0 [] expr

(* ------------------------------------------------------------------ *)
(* Name utilities *)

let split_name n = String.split_on_char '.' n

(* Trailing "Module.fn" pair of a qualified name: the stable suffix that
   survives both external resolution ("Pool.parallel_for") and fixture
   nesting ("Bad_para02.Pool.parallel_for"). *)
let last2 n =
  match List.rev (split_name n) with
  | fn :: m :: _ -> m ^ "." ^ fn
  | _ -> n

let normalize n =
  match split_name n with
  | "Stdlib" :: (_ :: _ as rest) -> String.concat "." rest
  | _ -> n

(* ------------------------------------------------------------------ *)
(* Resolution *)

let env_of t modname =
  match Hashtbl.find_opt t.envs modname with
  | Some env -> env
  | None -> Hashtbl.create 1

(* The qualified-name prefix a module path denotes: a locally bound
   module resolves through the unit environment, an unbound [Pident] is a
   persistent unit (or predef module) and denotes itself. *)
let rec module_prefix env p =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt env (Ident.unique_name id) with
      | Some (Mod prefix) -> Some prefix
      | Some (Val _) -> None
      | None -> Some (Ident.name id))
  | Path.Pdot (p', s) -> (
      match module_prefix env p' with
      | Some prefix -> Some (prefix ^ "." ^ s)
      | None -> None)
  | _ -> None

(* Fully qualified, Stdlib-normalized name of a value path; [None] for
   local variables and parameters (idents with no module-level entry). *)
let resolve_value env p =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt env (Ident.unique_name id) with
      | Some (Val key) -> Some key
      | _ -> None)
  | Path.Pdot (p', s) -> (
      match module_prefix env p' with
      | Some prefix -> Some (normalize (prefix ^ "." ^ s))
      | None -> None)
  | _ -> None

(* Resolution bundled with a unit's environment, the form rules use. *)
type scope = { env : (string, entry) Hashtbl.t }

let scope_of t (d : def) = { env = env_of t d.modname }
let scope_of_unit t (u : Lint_cmt.unit_info) = { env = env_of t u.modname }

let resolve scope p = resolve_value scope.env p

(* Resolved name of the expression in function-head position, if any. *)
let head_name scope e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> resolve scope p
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Building *)

let rec alias_of me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_of me
  | _ -> None

let build (units : Lint_cmt.unit_info list) =
  let defs = Hashtbl.create 512 in
  let order = ref [] in
  let envs = Hashtbl.create 16 in
  (* Pass 1: collect definitions and per-unit environments. *)
  List.iter
    (fun (u : Lint_cmt.unit_info) ->
      let env = Hashtbl.create 128 in
      Hashtbl.replace envs u.modname env;
      let add_def ~prefix id vb =
        let key = prefix ^ "." ^ Ident.name id in
        let params, arity, bodies = split_params vb.vb_expr in
        Hashtbl.replace env (Ident.unique_name id) (Val key);
        if not (Hashtbl.mem defs key) then begin
          Hashtbl.replace defs key
            {
              key;
              modname = u.modname;
              unit_display = u.display;
              loc = vb.vb_loc;
              params;
              arity;
              bodies;
              vb_attrs = vb.vb_attributes;
            };
          order := key :: !order
        end
      in
      let rec structure ~prefix str =
        List.iter
          (fun item ->
            match item.str_desc with
            | Tstr_value (_, vbs) ->
                List.iter
                  (fun vb ->
                    match vb.vb_pat.pat_desc with
                    | Tpat_var (id, _) -> add_def ~prefix id vb
                    | Tpat_alias (_, id, _) -> add_def ~prefix id vb
                    | _ -> ())
                  vbs
            | Tstr_module mb -> module_binding ~prefix mb
            | Tstr_recmodule mbs -> List.iter (module_binding ~prefix) mbs
            | _ -> ())
          str.str_items
      and module_binding ~prefix mb =
        match mb.mb_id with
        | None -> ()
        | Some id ->
            (* An alias ([module H = Hashtbl]) denotes its target, so
               [H.create] resolves to ["Hashtbl.create"]. *)
            let mprefix =
              match Option.bind (alias_of mb.mb_expr) (module_prefix env) with
              | Some target -> target
              | None -> prefix ^ "." ^ Ident.name id
            in
            Hashtbl.replace env (Ident.unique_name id) (Mod mprefix);
            module_expr ~prefix:mprefix mb.mb_expr
      and module_expr ~prefix me =
        match me.mod_desc with
        | Tmod_structure str -> structure ~prefix str
        | Tmod_constraint (me, _, _, _) -> module_expr ~prefix me
        | _ -> ()
      in
      structure ~prefix:u.modname u.str;
      (* A local alias ([let module H = Hashtbl in ...]) denotes its
         target as well.  The walk meets an alias before its body, so an
         alias of an alias resolves too. *)
      let expr it e =
        (match e.exp_desc with
        | Texp_letmodule (Some id, _, _, me, _) ->
            Option.iter
              (fun target ->
                Hashtbl.replace env (Ident.unique_name id) (Mod target))
              (Option.bind (alias_of me) (module_prefix env))
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it u.str)
    units;
  let t =
    {
      units;
      defs;
      def_order = List.rev !order;
      envs;
      calls = Hashtbl.create 512;
    }
  in
  (* Pass 2: call-graph edges — every reference from a definition's body
     to another definition. *)
  List.iter
    (fun key ->
      let d =
        match Hashtbl.find_opt defs key with
        | Some d -> d
        | None -> invalid_arg ("Lint_program.build: unknown def " ^ key)
      in
      let scope = scope_of t d in
      let out = ref [] in
      List.iter
        (iter_expr_deep (fun e ->
             match e.exp_desc with
             | Texp_ident (p, _, _) -> (
                 match resolve scope p with
                 | Some callee
                   when callee <> key && Hashtbl.mem defs callee ->
                     if not (List.mem callee !out) then out := callee :: !out
                 | _ -> ())
             | _ -> ()))
        d.bodies;
      Hashtbl.replace t.calls key (List.sort compare !out))
    t.def_order;
  t

let def_of t key = Hashtbl.find_opt t.defs key

let iter_defs t f =
  List.iter
    (fun k -> match Hashtbl.find_opt t.defs k with Some d -> f d | None -> ())
    t.def_order
let def_keys t = t.def_order

let callees t key =
  Option.value (Hashtbl.find_opt t.calls key) ~default:[]

(* ------------------------------------------------------------------ *)
(* Shared classification *)

let pool_entry_names =
  [
    "Pool.parallel_for";
    "Pool.parallel_for_ranges";
    "Pool.parallel_map";
    "Pool.parallel_map_list";
  ]

let is_pool_entry name = List.mem (last2 name) pool_entry_names

(* Containers whose update functions mutate their first argument: the
   stdlib [Hashtbl], [Buffer], [Queue] and [Stack], plus keyed tables by
   convention ([Itbl], [Ptbl], ... -- any module name ending in
   "tbl"/"Tbl", as produced by [Hashtbl.Make]). *)
let mutating_container m =
  m = "Hashtbl" || m = "Buffer" || m = "Queue" || m = "Stack"
  || (let n = String.length m in
      n >= 3 && String.lowercase_ascii (String.sub m (n - 3) 3) = "tbl")

let mutating_container_fn =
  [
    "add"; "replace"; "remove"; "reset"; "clear"; "add_char"; "add_string";
    "add_bytes"; "add_subbytes"; "add_substring"; "add_buffer"; "add_channel";
    "truncate"; "filter_map_inplace"; "push"; "pop"; "take"; "transfer";
    "add_seq"; "replace_seq";
  ]

(* [Some i]: a call to [name] mutates its [i]-th positional argument. *)
let mutating_target name =
  match name with
  | ":=" | "incr" | "decr" -> Some 0
  | _ -> (
      match List.rev (split_name name) with
      | fn :: m :: _ when mutating_container m && List.mem fn mutating_container_fn
        ->
          Some 0
      | _ -> None)

(* Modules providing sanctioned concurrency or observability primitives:
   mutation through these is the point, not a race. *)
let sanctioned_module m =
  List.mem m
    [
      "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Domain"; "Pool"; "Obs";
      "Obs_metrics"; "Obs_trace"; "Obs_state"; "Obs_clock"; "Obs_export";
    ]

let sanctioned_callee name =
  match split_name name with m :: _ :: _ -> sanctioned_module m | _ -> false

(* Units whose definitions get neutral summaries: the observability and
   pool layers mutate their own internal state by design (per-domain
   metric cells, work queues), under their own synchronisation. *)
let exempt_unit (d : def) =
  Lint_driver.contains_sub ~sub:"lib/obs" d.unit_display
  || Lint_driver.contains_sub ~sub:"lib/parallel" d.unit_display

let raise_family =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "assert_failure" ]

let is_raise_name name = List.mem name raise_family

(* The repo's metrics-gating idiom: work under [if Obs.metrics_on () then]
   (or [tracing_on]/[enabled]) only runs when observability is switched
   on, so hot-loop rules skip those branches. *)
let is_metrics_gate scope cond =
  exists_expr
    (fun e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
          match resolve scope p with
          | Some n -> (
              match last2 n with
              | "Obs.metrics_on" | "Obs.tracing_on" | "Obs.enabled" -> true
              | _ -> false)
          | None -> false)
      | _ -> false)
    cond

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = name)
    attrs

(* The ALLOC02 opt-in marker: on a binding ([let[@lint.hot_loop] f ...])
   or on an expression ([(while ... done) [@lint.hot_loop]]). *)
let hot_loop_attr = "lint.hot_loop"
