(* Parsing, scope classification, rule execution, suppression filtering
   and path discovery. *)

type result = {
  diags : Lint_diag.t list;  (* surviving findings, sorted *)
  errors : string list;  (* files that could not be read or parsed *)
}

let empty = { diags = []; errors = [] }

let merge a b =
  { diags = a.diags @ b.diags; errors = a.errors @ b.errors }

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let in_scope display = function
  | Lint_rules.Anywhere -> true
  | Under ps -> List.exists (fun p -> contains_sub ~sub:p display) ps
  | Outside p -> not (contains_sub ~sub:p display)

let parse_implementation ~display src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf display;
  Parse.implementation lexbuf

let rule_enabled only id =
  match only with [] -> true | ids -> List.mem id ids

(* Lint one [.ml] file: run the syntactic rules whose scope covers
   [display] ([only] restricts them to the given ids; empty = all), then
   drop every finding -- theirs, and [typed], the typed tier's findings
   against the same file -- that a comment or attribute in the source
   suppresses. *)
let lint_file ?(only = []) ?(typed = []) ~display path =
  let failed msg = { diags = typed; errors = [ msg ] } in
  match Lint_cmt.read_file path with
  | exception Sys_error msg -> failed msg
  | src -> (
      match parse_implementation ~display src with
      | exception exn ->
          failed
            (match Location.error_of_exn exn with
            | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
            | _ -> Printf.sprintf "%s: %s" display (Printexc.to_string exn))
      | structure ->
          let ctx = { Lint_rules.display; diags = [] } in
          Lint_rules.check ctx
            (List.filter
               (fun (r : Lint_rules.rule) ->
                 rule_enabled only r.id && in_scope display r.scope)
               (Lint_rules.all_rules ()))
            structure;
          let spans =
            Lint_suppress.scan_comments src
            @ Lint_suppress.collect_attribute_spans structure
          in
          {
            diags =
              Lint_diag.dedup_sort
                (Lint_suppress.filter spans (typed @ ctx.diags));
            errors = [];
          })

(* Recursively collect [.ml] files under [path] (skipping build/VCS
   directories), or [path] itself when it is a file. *)
let rec collect_ml path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if entry = "_build" || entry = "" || entry.[0] = '.' then []
           else collect_ml (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let lint_paths ?(only = []) ?(prefix = "") paths =
  let files = List.concat_map collect_ml paths in
  List.fold_left
    (fun acc path -> merge acc (lint_file ~only ~display:(prefix ^ path) path))
    empty files
  |> fun r -> { r with diags = Lint_diag.dedup_sort r.diags }
