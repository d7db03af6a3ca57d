(* Driver for the typed (whole-program) tier.

   Loads compilation units (cmt files, directories scanned for cmts, or
   standalone .ml files typechecked in-process), builds the program
   representation once, runs the typed rules over it, and — so the two
   tiers share one entry point and one deduplicated report — also runs
   the syntactic rules over each unit whose source is readable.

   Suppression works exactly as in the syntactic tier: each unit's
   source is parsed once, and its `lint: allow` comments and
   [@lint.allow] attributes filter the findings of both tiers. *)

(* Classify and load the given inputs: a directory is scanned recursively
   for .cmt files, a .cmt is read, a .ml is typechecked in-process.
   Units are deduplicated by module name, first occurrence wins. *)
let load_units ~prefix paths =
  let units = ref [] and errors = ref [] in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let add = function
    | Ok (u : Lint_cmt.unit_info) ->
        if not (Hashtbl.mem seen u.modname) then begin
          Hashtbl.replace seen u.modname ();
          units := u :: !units
        end
    | Error e -> errors := e :: !errors
  in
  List.iter
    (fun path ->
      if Sys.file_exists path && Sys.is_directory path then
        List.iter
          (fun c -> add (Lint_cmt.load_cmt ~prefix c))
          (Lint_cmt.collect_cmts path)
      else if Filename.check_suffix path ".cmt" then
        add (Lint_cmt.load_cmt ~prefix path)
      else if Filename.check_suffix path ".ml" then
        add (Lint_cmt.typecheck_ml ~prefix path)
      else
        errors := (path ^ ": expected a directory, .cmt or .ml file") :: !errors)
    paths;
  (List.rev !units, List.rev !errors)

let analyze ?(only = []) ?(prefix = "") paths =
  let units, load_errors = load_units ~prefix paths in
  let prog = Lint_program.build units in
  let ctx = { Lint_typed_rules.prog; diags = [] } in
  List.iter
    (fun (r : Lint_typed_rules.rule) ->
      if Lint_driver.rule_enabled only r.id then r.check ctx)
    (Lint_typed_rules.all_rules ());
  let r =
    List.fold_left
      (fun acc (u : Lint_cmt.unit_info) ->
        let typed =
          List.filter
            (fun d -> d.Lint_diag.file = u.display)
            ctx.Lint_typed_rules.diags
        in
        Lint_driver.merge acc
          (match u.source_path with
          | Some p -> Lint_driver.lint_file ~only ~typed ~display:u.display p
          | None -> { Lint_driver.diags = typed; errors = [] }))
      { Lint_driver.empty with errors = load_errors }
      units
  in
  { r with diags = Lint_diag.dedup_sort r.diags }
