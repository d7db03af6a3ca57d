(* qpgc-lint: in-repo static analysis for parallel-safety and hot-path
   discipline.  See tools/lint/ for the rules and DESIGN.md for the why.

   Two tiers:

   - default: per-file syntactic rules over parsed .ml sources;
   - --typed: whole-program rules over Typedtree .cmt files (plus the
     syntactic rules on each unit's source), with inputs being .cmt
     files, directories scanned recursively for .cmt, or standalone .ml
     files typechecked in-process against the stdlib.

   Usage: qpgc-lint [options] <file.ml | dir> ...
          qpgc-lint --typed [options] <file.cmt | file.ml | dir> ...

   Exit codes: 0 clean, 1 findings, 2 read/parse errors. *)

let usage =
  "qpgc-lint [--typed] [--prefix P] [--format text|json] [--rule R] <paths>"

let () =
  let paths = ref [] in
  let prefix = ref "" in
  let format = ref "text" in
  let only = ref [] in
  let list_rules = ref false in
  let typed = ref false in
  let spec =
    [
      ("--typed", Arg.Set typed,
       " whole-program tier: analyze Typedtree (.cmt) units with the \
        interprocedural rules, then the syntactic rules on their sources");
      ("--prefix", Arg.Set_string prefix,
       "P prepend P to reported file paths (for out-of-tree invocation)");
      ("--format", Arg.Symbol ([ "text"; "json" ], (fun f -> format := f)),
       " output format (default text)");
      ("--rule", Arg.String (fun r -> only := r :: !only),
       "R run only rule R (repeatable; default: all rules)");
      ("--list-rules", Arg.Set list_rules, " print the rule catalogue and exit");
    ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    List.iter
      (fun (r : Lint_rules.rule) -> Printf.printf "%s\n  %s\n" r.id r.doc)
      (Lint_rules.all_rules ());
    List.iter
      (fun (r : Lint_typed_rules.rule) ->
        Printf.printf "%s (typed tier)\n  %s\n" r.id r.doc)
      (Lint_typed_rules.all_rules ());
    exit 0
  end;
  if !paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let result =
    if !typed then
      Lint_typed_driver.analyze ~only:!only ~prefix:!prefix (List.rev !paths)
    else
      Lint_driver.lint_paths ~only:!only ~prefix:!prefix (List.rev !paths)
  in
  List.iter prerr_endline result.errors;
  (match !format with
  | "json" -> print_endline (Lint_diag.list_to_json result.diags)
  | _ -> List.iter (fun d -> print_endline (Lint_diag.to_text d)) result.diags);
  if result.errors <> [] then exit 2
  else if result.diags <> [] then begin
    Printf.eprintf "qpgc-lint: %d finding(s)\n" (List.length result.diags);
    exit 1
  end
