(* Lint rules and their catalogue.

   Rules report through a shared context; suppression filtering happens
   later in the driver, so rules stay oblivious to it.  Each rule carries
   a scope, which the driver judges from the file's display path.

   Shipped rules:

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
   - OBS01   raw clocks ([Unix.gettimeofday] / [Sys.time]) anywhere
             outside [lib/obs]: timing goes through the monotonic
             [Obs.Clock] so durations cannot go negative under NTP steps
             and all measurement shares one code path.
   - CSR02   the dense CSR escape hatch ([Digraph.out_csr] / [in_csr])
             outside the storage layer.
   - SRV01   blocking primitives inside [lib/server].
   - OBS02   direct console output ([print_string] / [Printf.printf] /
             [prerr_endline] / [Format.eprintf] ...) inside [lib/server]
             and [lib/parallel]: daemon and pool diagnostics go through
             the leveled, per-domain-buffered [Obs.Log], so lines never
             interleave across domains and operators can gate/format
             them.

   Every rule but POLY01 is a banned-call entry: the identifiers it
   matches and the message it reports.  One [Ast_iterator] walk serves
   the whole table. *)

open Parsetree

type ctx = {
  display : string;  (* path shown in diagnostics *)
  mutable diags : Lint_diag.t list;
}

let report ctx ~loc ~rule msg =
  ctx.diags <- Lint_diag.make ~file:ctx.display ~loc ~rule msg :: ctx.diags

(* The hot-path directories: the scope of POLY01 and CMP01. *)
let hot_prefixes =
  [ "lib/graph"; "lib/partition"; "lib/core"; "lib/query"; "lib/server" ]

(* Where a rule applies, judged from the file's display path. *)
type scope =
  | Anywhere
  | Hot  (* the hot-path modules, [hot_prefixes] *)
  | Under of string list  (* paths containing one of these *)
  | Outside of string  (* paths not containing this *)

type check =
  | Walk of (ctx -> structure -> unit)  (* a rule with its own traversal *)
  | Banned of {
      matches : string list -> string option;
          (* identifier path -> the name its message shows *)
      message : string -> string;
    }

type rule = { id : string; doc : string; scope : scope; check : check }

(* ------------------------------------------------------------------ *)
(* Longident helpers *)

(* Normalised path of an identifier expression, with a leading [Stdlib]
   dropped so ["Stdlib"; "compare"] and ["compare"] match the same way. *)
let path_of_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | "Stdlib" :: (_ :: _ as rest) -> Some rest
      | path -> Some path
      | exception _ -> None (* Lapply *))
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
(* POLY01: polymorphic comparison on hot paths *)

let poly_comparators = [ "compare"; "="; "<>" ]
let poly_always = [ "min"; "max" ]

let poly01 =
  {
    id = "POLY01";
    scope = Hot;
    doc =
      "Polymorphic comparison in a hot-path module ("
      ^ String.concat ", " hot_prefixes
      ^ "): min/max and Hashtbl.hash anywhere, and compare / = / <> \
         escaping as first-class functions (e.g. Array.sort compare). Use a \
         monomorphic version (Int.compare, Mono.imin, an FNV-1a string \
         hash, ...) instead; the generic caml_compare walk is a \
         memory-bound interpreter of the value's shape.";
    check =
      Walk
        (fun ctx structure ->
          (* Names locally rebound in the file (e.g. a module-level
             [let compare : int -> int -> int = ...]) are monomorphic by
             construction: bare uses from the binding's line onward are
             not flagged.  Tracking is by line, not scope -- precise
             enough for the shadow-at-top-of-module idiom this rule
             encourages. *)
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
                  (it is never specialised); use a typed version: Mono.i%s \
                  for ints, Float.%s for floats"
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
            | [ name ]
              when List.mem name poly_always && not (is_shadowed name ~loc) ->
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
                    check_ident f.pexp_loc path
                      ~applied_args:(List.length args)
                | None -> ())
            | Pexp_ident _ -> (
                (* Escaping position: argument, binding rhs, ... (idents
                   that head an application are handled above and skipped
                   below, so they are never re-flagged as escaping). *)
                match path_of_expr e with
                | Some path -> check_ident e.pexp_loc path ~applied_args:0
                | None -> ())
            | _ -> ());
            match e.pexp_desc with
            | Pexp_apply (f, args) ->
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
(* Banned calls *)

(* Matcher for a fixed list of dotted names ("List.hd", "input_line"). *)
let names l =
  let table = List.map (fun n -> (String.split_on_char '.' n, n)) l in
  fun path -> List.assoc_opt path table

(* Hash-table modules: the stdlib [Hashtbl] plus keyed tables by convention
   ([Mono.Itbl], [Sig_tbl], ... -- any module name ending "tbl"/"Tbl", as
   produced by [Hashtbl.Make]). *)
let table_module m =
  m = "Hashtbl"
  || (let n = String.length m in
      n >= 3 && String.lowercase_ascii (String.sub m (n - 3) 3) = "tbl")

let partial01 =
  {
    id = "PARTIAL01";
    scope = Anywhere;
    doc =
      "Partial stdlib functions (List.hd, List.tl, List.nth, Option.get, \
       Hashtbl.find, List.find, String.index) raise on the shapes they \
       exclude with a message that names neither caller nor data. \
       Destructure with a total match, or use the [_opt] variant, carrying \
       a real error message instead. Test code is exempt by construction: \
       the lint run covers lib/, bin/, bench/, examples/ and tools/.";
    check =
      Banned
        {
          (* The not-found raisers are here too: the [_opt] variants force
             the caller to decide what absence means instead of leaking a
             bare [Not_found]. *)
          matches =
            names
              [
                "List.hd"; "List.tl"; "List.nth"; "ListLabels.hd";
                "ListLabels.tl"; "ListLabels.nth"; "Option.get";
                "Hashtbl.find"; "List.find"; "ListLabels.find"; "String.index";
                "StringLabels.index";
              ];
          message =
            Printf.sprintf
              "`%s` is partial and fails with a context-free exception; use \
               a total match with a real error message";
        };
  }

let cmp01 =
  {
    id = "CMP01";
    scope = Hot;
    doc =
      "Polymorphic Hashtbl.create in a hot-path module: every operation \
       hashes and compares keys through the generic structural walk. Use a \
       keyed table (Hashtbl.Make) with monomorphic hash/equal -- e.g. \
       Mono.Itbl for int keys, Mono.Ptbl for int-pair keys, Mono.Stbl for \
       string keys.";
    check =
      Banned
        {
          matches = names [ "Hashtbl.create" ];
          message =
            (fun _ ->
              "polymorphic `Hashtbl.create` in a hot-path module; use a \
               keyed table with monomorphic hash/equal (Mono.Itbl, \
               Mono.Ptbl, Mono.Stbl, or a local Hashtbl.Make)");
        };
  }

(* Scoped by path rather than by the hot classification: the other hot
   directories use keyed tables legitimately, but lib/partition is the
   flat-array refinement engine — its whole point is that
   mark/split/refine run on preallocated arrays. *)
let alloc01 =
  {
    id = "ALLOC01";
    scope = Under [ "lib/partition" ];
    doc =
      "Hash-table creation (Hashtbl.create or a keyed *tbl table such as \
       Mono.Itbl / Mono.Ptbl) inside lib/partition, the flat-array \
       partition-refinement substrate: its hot loops (mark, split, the \
       Paige-Tarjan rounds) are contractually zero-allocation, with edge \
       counts in a flat counter pool indexed by CSR edge position. Keep \
       tables out of refinement code, or suppress with `lint: allow \
       ALLOC01` for set-up / oracle / normalization code that runs once.";
    check =
      Banned
        {
          matches =
            (fun path ->
              match List.rev path with
              | "create" :: m :: _ when table_module m -> Some m
              | _ -> None);
          message =
            Printf.sprintf
              "`%s.create` allocates a hash table inside lib/partition, the \
               zero-allocation refinement substrate; keep tables out of \
               refinement loops (flat arrays indexed by node / block / CSR \
               edge position), or suppress with `lint: allow ALLOC01` for \
               one-shot set-up or oracle code";
        };
  }

(* Fires everywhere except lib/obs, the one place allowed to touch a raw
   clock (Obs_clock wraps the monotonic one) -- including the cold front
   ends, where duplicated gettimeofday deltas used to accumulate. *)
let obs01 =
  {
    id = "OBS01";
    scope = Outside "lib/obs";
    doc =
      "Raw clock reads (Unix.gettimeofday, Sys.time) outside lib/obs. \
       Wall-clock time is stepped by NTP, so deltas can go negative, and \
       Sys.time is process CPU time, which under a domain pool sums every \
       worker's cycles; both also bypass the span/metrics layer. Time with \
       Obs.time (result + seconds), Obs.Clock.now_ns / elapsed_s, or wrap \
       the region in Obs.span instead.";
    check =
      Banned
        {
          matches =
            names [ "Unix.gettimeofday"; "UnixLabels.gettimeofday"; "Sys.time" ];
          message =
            Printf.sprintf
              "`%s` is a raw clock read outside lib/obs; time with Obs.time \
               / Obs.Clock.now_ns (the monotonic clock) or wrap the region \
               in Obs.span, so durations cannot go negative and all \
               measurement shares one code path";
        };
  }

(* [Digraph.out_csr] / [in_csr] are an escape hatch.  On the CSR store
   (flat and mmap) they return the graph's own arrays, but on the varint
   backend the first call materialises (and caches) a heap copy of the
   whole adjacency, silently defeating the compact encoding.  The storage
   layer itself (lib/graph) owns the representation and may use them
   freely; everywhere else -- cold front ends included, since one cold
   call on a varint graph decodes the whole adjacency onto the heap --
   iterates through the backend-polymorphic accessors, and the few kernels
   that genuinely need the arrays carry a justified `lint: allow CSR02`. *)
let csr02 =
  {
    id = "CSR02";
    scope = Outside "lib/graph";
    doc =
      "Dense CSR views (Digraph.out_csr, Digraph.in_csr) outside lib/graph: \
       the flat and mmap backends return their own arrays, but on the varint \
       backend the first call materializes and caches a heap copy of the \
       entire adjacency, defeating the compact encoding. Iterate with \
       Digraph.iter_succ / fold_succ / succ_slice (and the *_pred mirrors), \
       which dispatch per backend without materializing; a kernel that \
       genuinely needs the dense arrays suppresses with `lint: allow CSR02` \
       plus a justification.";
    check =
      Banned
        {
          matches = names [ "Digraph.out_csr"; "Digraph.in_csr" ];
          message =
            Printf.sprintf
              "`%s` exposes the dense CSR outside lib/graph, forcing a \
               full heap copy on the varint backend; iterate with \
               Digraph.iter_succ / fold_succ / succ_slice (or *_pred), or \
               suppress with `lint: allow CSR02` where the dense arrays are \
               genuinely required";
        };
  }

(* The daemon's event loop is single-threaded: one blocking sleep or one
   unbounded "read exactly N bytes" call stalls every connection at once.
   lib/server therefore reads in bounded [Unix.read] chunks driven by the
   protocol's length prefix and never sleeps — retry/backoff loops belong
   in the callers (bin/, bench/), which may block freely. *)
let srv01 =
  {
    id = "SRV01";
    scope = Under [ "lib/server" ];
    doc =
      "Blocking primitives (Unix.sleep/sleepf, Thread.delay, really_input, \
       really_input_string, input_line) inside lib/server: the daemon's \
       event loop is single-threaded, so one blocking call stalls every \
       connection and wrecks the latency tail. Read in bounded Unix.read \
       chunks driven by the protocol's length prefix, let Unix.select do \
       the waiting, and keep retry/backoff sleeps in the callers (bin/, \
       bench/).";
    check =
      Banned
        {
          matches =
            names
              [
                "Unix.sleep"; "Unix.sleepf"; "UnixLabels.sleep";
                "UnixLabels.sleepf"; "Thread.delay"; "really_input";
                "really_input_string"; "In_channel.really_input";
                "In_channel.really_input_string"; "input_line";
                "In_channel.input_line";
              ];
          message =
            Printf.sprintf
              "`%s` blocks the single-threaded serving loop, stalling every \
               connection at once; use bounded Unix.read chunks driven by \
               the frame length prefix and Unix.select timeouts, and move \
               sleeps/retries into the callers";
        };
  }

(* The telemetry plane made lib/server and lib/parallel multi-writer:
   the event loop and every pool worker can emit diagnostics.  A bare
   [print_string]/[Printf.printf] bypasses the per-domain log buffers
   (interleaved bytes under contention), ignores the operator's
   --log-level / --log-json choice, and — on stdout — corrupts any
   machine-readable output the front end promised.  All output from
   these layers goes through [Obs.Log]. *)
let obs02 =
  {
    id = "OBS02";
    scope = Under [ "lib/server"; "lib/parallel" ];
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
      Banned
        {
          matches =
            names
              [
                "print_string"; "print_endline"; "print_newline"; "print_char";
                "prerr_string"; "prerr_endline"; "prerr_newline";
                "Printf.printf"; "Printf.eprintf"; "Format.printf";
                "Format.eprintf"; "Format.print_string";
              ];
          message =
            Printf.sprintf
              "`%s` writes to the console directly from the daemon/pool \
               layer, bypassing the per-domain log buffers and the \
               operator's log configuration; use Obs.Log.debug/info/warn/\
               error with structured fields instead";
        };
  }

let all_rules () =
  [ alloc01; cmp01; csr02; obs01; obs02; partial01; poly01; srv01 ]

(* Run [rules] over [structure]: one walk for every banned-call entry,
   then each rule with its own traversal. *)
let check ctx rules structure =
  let banned_at (e : expression) path (r : rule) =
    match r.check with
    | Banned b ->
        Option.iter
          (fun name -> report ctx ~loc:e.pexp_loc ~rule:r.id (b.message name))
          (b.matches path)
    | Walk _ -> ()
  in
  let open Ast_iterator in
  let super = default_iterator in
  let expr it e =
    Option.iter (fun path -> List.iter (banned_at e path) rules) (path_of_expr e);
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it structure;
  List.iter
    (fun r -> match r.check with Walk f -> f ctx structure | Banned _ -> ())
    rules
