(* Lint rules and their catalogue: the syntactic tier.

   Rules report through a shared context; suppression filtering happens
   later in the driver, so rules stay oblivious to it.  Each rule carries
   a scope, which the driver judges from the file's display path.

   Shipped rules:

   - PARTIAL01  partial stdlib functions: [List.hd] / [List.tl] /
             [List.nth] / [Option.get].
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

   Every rule is a banned-call entry: the identifiers it matches and the
   message it reports.  One [Ast_iterator] walk serves the whole table.
   None needs a type, so the tier runs on a bare source file. *)

open Parsetree

type ctx = {
  display : string;  (* path shown in diagnostics *)
  mutable diags : Lint_diag.t list;
}

let report ctx ~loc ~rule msg =
  ctx.diags <- Lint_diag.make ~file:ctx.display ~loc ~rule msg :: ctx.diags

(* The hot-path directories, where the typed POLY02 also bans the generic
   comparison and hashing primitives. *)
let hot_prefixes =
  [ "lib/graph"; "lib/partition"; "lib/core"; "lib/query"; "lib/server" ]

(* Where a rule applies, judged from the file's display path. *)
type scope =
  | Anywhere
  | Under of string list  (* paths containing one of these *)
  | Outside of string  (* paths not containing this *)

type rule = {
  id : string;
  doc : string;
  scope : scope;
  matches : string list -> string option;
      (* identifier path -> the name its message shows *)
  message : string -> string;
}

(* ------------------------------------------------------------------ *)
(* Longident helpers *)

(* Normalised path of an identifier expression, with a leading [Stdlib]
   dropped so ["Stdlib"; "print_string"] and ["print_string"] match the same
   way. *)
let path_of_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | "Stdlib" :: (_ :: _ as rest) -> Some rest
      | path -> Some path
      | exception _ -> None (* Lapply *))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Banned calls *)

(* Matcher for a fixed list of dotted names ("List.hd", "input_line"). *)
let names l =
  let table = List.map (fun n -> (String.split_on_char '.' n, n)) l in
  fun path -> List.assoc_opt path table

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
    matches =
      names [ "Unix.gettimeofday"; "UnixLabels.gettimeofday"; "Sys.time" ];
    message =
      Printf.sprintf
        "`%s` is a raw clock read outside lib/obs; time with Obs.time \
         / Obs.Clock.now_ns (the monotonic clock) or wrap the region \
         in Obs.span, so durations cannot go negative and all \
         measurement shares one code path";
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
    matches = names [ "Digraph.out_csr"; "Digraph.in_csr" ];
    message =
      Printf.sprintf
        "`%s` exposes the dense CSR outside lib/graph, forcing a \
         full heap copy on the varint backend; iterate with \
         Digraph.iter_succ / fold_succ / succ_slice (or *_pred), or \
         suppress with `lint: allow CSR02` where the dense arrays are \
         genuinely required";
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
  }

let all_rules () = [ csr02; obs01; obs02; partial01; srv01 ]

(* Run [rules] over [structure]: one walk serves every banned-call entry. *)
let check ctx rules structure =
  let banned_at (e : expression) path (r : rule) =
    Option.iter
      (fun name -> report ctx ~loc:e.pexp_loc ~rule:r.id (r.message name))
      (r.matches path)
  in
  let open Ast_iterator in
  let super = default_iterator in
  let expr it e =
    Option.iter (fun path -> List.iter (banned_at e path) rules) (path_of_expr e);
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it structure
