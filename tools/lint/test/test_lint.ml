(* Unit tests for qpgc-lint: each fixture has a known set of (line, rule)
   diagnostics, asserted exactly.  Fixtures are copied into the test's
   sandbox by the dune [deps] clause, so paths are relative. *)

let fixture name = Filename.concat "fixtures" name

(* Lint a fixture as a hot-path module (displayed under lib/core) and
   return its (line, rule) pairs in report order. *)
let lint ?only name =
  let path = fixture name in
  let r = Lint_driver.lint_file ?only ~display:("lib/core/" ^ path) path in
  (match r.Lint_driver.errors with
  | [] -> ()
  | e :: _ -> Alcotest.failf "unexpected lint error on %s: %s" name e);
  List.map (fun d -> (d.Lint_diag.line, d.Lint_diag.rule)) r.Lint_driver.diags

let line_rule = Alcotest.(pair int string)

let check_diags name expected actual =
  Alcotest.check (Alcotest.list line_rule) name expected actual

(* The typed tier typechecks a fixture in-process against the stdlib, so
   each typed fixture is self-contained (local Pool/Obs modules, local
   Parse_error). *)
let typed_lint ?only ?prefix name =
  let path = fixture name in
  let r = Lint_typed_driver.analyze ?only ?prefix [ path ] in
  (match r.Lint_driver.errors with
  | [] -> ()
  | e :: _ -> Alcotest.failf "unexpected typed lint error on %s: %s" name e);
  List.map (fun d -> (d.Lint_diag.line, d.Lint_diag.rule)) r.Lint_driver.diags

(* bad_cmp01.ml and bad_poly01.ml keep the cases of the syntactic rules
   CMP01 and POLY01, which POLY02 took over in the hot-path modules.  The
   generic Hashtbl.create is flagged by resolved path, so through a module
   alias (line 14), an open (line 19) and a local module alias (line 24)
   too. *)
let test_cmp01 () =
  check_diags "bad_cmp01"
    [ (3, "POLY02"); (14, "POLY02"); (19, "POLY02"); (24, "POLY02") ]
    (typed_lint ~only:[ "POLY02" ] ~prefix:"lib/core/" "bad_cmp01.ml")

let test_partial01 () =
  check_diags "bad_partial01"
    [
      (3, "PARTIAL01");
      (6, "PARTIAL01");
      (9, "PARTIAL01");
      (12, "PARTIAL01");
      (15, "PARTIAL01");
      (18, "PARTIAL01");
      (21, "PARTIAL01");
    ]
    (lint "bad_partial01.ml")

let test_csr02 () =
  check_diags "bad_csr02"
    [ (3, "CSR02"); (6, "CSR02") ]
    (lint ~only:[ "CSR02" ] "bad_csr02.ml")

(* CSR02 is scoped by display path: the storage layer itself owns the
   representation and may touch the dense CSR freely. *)
let test_csr02_in_scope () =
  let r =
    Lint_driver.lint_file ~only:[ "CSR02" ]
      ~display:"lib/graph/bad_csr02.ml"
      (fixture "bad_csr02.ml")
  in
  check_diags "bad_csr02 under lib/graph" []
    (List.map
       (fun d -> (d.Lint_diag.line, d.Lint_diag.rule))
       r.Lint_driver.diags)

(* ALLOC01's four table creations (generic, [Mono.Itbl], [Mono.Ptbl],
   [Sig_tbl]) now sit in the marked loop of bad_alloc02.ml, lines 58-61.
   Linted with all rules under lib/partition, ALLOC01's old scope, each is
   reported by ALLOC02, and the generic one by POLY02's hot-module half as
   well; the table modules defined outside the loop are clean. *)
let test_alloc01 () =
  check_diags "bad_alloc01 cases"
    [
      (58, "ALLOC02");
      (58, "POLY02");
      (59, "ALLOC02");
      (60, "ALLOC02");
      (61, "ALLOC02");
    ]
    (List.filter
       (fun (l, _) -> l >= 41 && l <= 62)
       (typed_lint ~prefix:"lib/partition/" "bad_alloc02.ml"))

(* OBS01 is scoped by display path: it fires everywhere except under
   lib/obs.  The [lint] helper's display path (lib/core/...) is
   outside lib/obs, so the findings fire. *)
let test_obs01 () =
  check_diags "bad_obs01"
    [ (3, "OBS01"); (6, "OBS01"); (9, "OBS01"); (12, "OBS01") ]
    (lint "bad_obs01.ml")

(* The same file displayed under lib/obs is exempt: that layer wraps the
   raw clock for everyone else. *)
let test_obs01_in_scope () =
  let r =
    Lint_driver.lint_file ~only:[ "OBS01" ]
      ~display:"lib/obs/bad_obs01.ml"
      (fixture "bad_obs01.ml")
  in
  check_diags "bad_obs01 under lib/obs" []
    (List.map
       (fun d -> (d.Lint_diag.line, d.Lint_diag.rule))
       r.Lint_driver.diags)

(* SRV01 is scoped by display path: it fires only when the linted file sits
   under lib/server — the one layer whose event loop must never block. *)
let test_srv01 () =
  let r =
    Lint_driver.lint_file ~only:[ "SRV01" ]
      ~display:"lib/server/bad_srv01.ml"
      (fixture "bad_srv01.ml")
  in
  check_diags "bad_srv01"
    [
      (3, "SRV01");
      (6, "SRV01");
      (9, "SRV01");
      (12, "SRV01");
      (15, "SRV01");
      (18, "SRV01");
    ]
    (List.map
       (fun d -> (d.Lint_diag.line, d.Lint_diag.rule))
       r.Lint_driver.diags)

(* The same file anywhere else is exempt: retry/backoff sleeps belong in
   the callers (bin/, bench/). *)
let test_srv01_out_of_scope () =
  check_diags "bad_srv01 outside lib/server" []
    (lint ~only:[ "SRV01" ] "bad_srv01.ml")

(* OBS02 covers both multi-domain layers: the daemon's event loop and the
   pool's workers must log through the per-domain Obs.Log buffers. *)
let obs02_expected =
  [
    (3, "OBS02");
    (6, "OBS02");
    (9, "OBS02");
    (12, "OBS02");
    (15, "OBS02");
    (18, "OBS02");
  ]

let obs02_under display =
  let r =
    Lint_driver.lint_file ~only:[ "OBS02" ] ~display
      (fixture "bad_obs02.ml")
  in
  List.map (fun d -> (d.Lint_diag.line, d.Lint_diag.rule)) r.Lint_driver.diags

let test_obs02 () =
  check_diags "bad_obs02 under lib/server" obs02_expected
    (obs02_under "lib/server/bad_obs02.ml");
  check_diags "bad_obs02 under lib/parallel" obs02_expected
    (obs02_under "lib/parallel/bad_obs02.ml")

(* Anywhere else — front ends, bench, tests — printing is the point. *)
let test_obs02_out_of_scope () =
  check_diags "bad_obs02 outside the daemon layers" []
    (lint ~only:[ "OBS02" ] "bad_obs02.ml")

(* [Array.sort compare] is clean on an int array (line 3: ocamlopt
   compiles the closure to compare_ints) and flagged on an (int * int)
   array (line 18).  Lines 22-23 rebind [compare] monomorphically and then
   use it: the use resolves to the local definition, not to Stdlib's. *)
let test_poly01 () =
  check_diags "bad_poly01"
    [
      (6, "POLY02");
      (9, "POLY02");
      (12, "POLY02");
      (15, "POLY02");
      (18, "POLY02");
    ]
    (typed_lint ~only:[ "POLY02" ] ~prefix:"lib/core/" "bad_poly01.ml")

let test_clean () = check_diags "clean" [] (lint "clean.ml")

(* Every violation in suppressed.ml carries one of the suppression forms
   (trailing comment, comment-above, expression attribute, item attribute,
   multi-rule directive); all must silence the finding. *)
let test_suppressed () = check_diags "suppressed" [] (lint "suppressed.ml")

(* The same violations outside the hot directories: POLY02's hot-module
   half stays quiet, and neither fixture marks a [@lint.hot_loop]. *)
let test_cold () =
  check_diags "bad_poly01 cold" [] (typed_lint "bad_poly01.ml");
  check_diags "bad_cmp01 cold" [] (typed_lint "bad_cmp01.ml")

let test_parse_error () =
  let tmp = Filename.temp_file "lint_broken" ".ml" in
  let oc = open_out tmp in
  output_string oc "let = in\n";
  close_out oc;
  let r = Lint_driver.lint_file ~display:tmp tmp in
  Sys.remove tmp;
  Alcotest.(check bool) "parse error reported" true (r.Lint_driver.errors <> [])

let test_json () =
  let r =
    Lint_typed_driver.analyze ~prefix:"lib/core/" [ fixture "bad_cmp01.ml" ]
  in
  let json = Lint_diag.list_to_json r.Lint_driver.diags in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec go i = i + m <= n && (String.sub json i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json has rule" true (has {|"rule":"POLY02"|});
  Alcotest.(check bool) "json has line" true (has {|"line":3|})

(* ------------------------------------------------------------------ *)
(* Typed (whole-program) tier *)

let test_para02 () =
  check_diags "bad_para02"
    [ (26, "PARA02"); (36, "PARA02"); (43, "PARA02"); (51, "PARA02") ]
    (typed_lint ~only:[ "PARA02" ] "bad_para02.ml")

(* The direct mutations of bad_para01.ml -- a captured ref (:=, incr), a
   Hashtbl, a Buffer, a record field -- each reported once, at the
   mutation; nothing in the sanctioned [good]. *)
let para01_cases = [ 6; 12; 18; 25; 48 ]

let test_para01_cases () =
  check_diags "bad_para01 --rule PARA02"
    (List.map (fun l -> (l, "PARA02")) para01_cases)
    (typed_lint ~only:[ "PARA02" ] "bad_para01.ml")

(* The full run of both tiers in a hot directory adds the two polymorphic
   tables, and nothing else. *)
let test_para01_cases_hot () =
  check_diags "bad_para01 under lib/core"
    (List.sort compare
       ([ (17, "POLY02"); (36, "POLY02") ]
       @ List.map (fun l -> (l, "PARA02")) para01_cases))
    (typed_lint ~prefix:"lib/core/" "bad_para01.ml")

let test_bounds01 () =
  check_diags "bad_bounds01"
    [ (8, "BOUNDS01"); (14, "BOUNDS01") ]
    (typed_lint ~only:[ "BOUNDS01" ] "bad_bounds01.ml")

(* Lines 58-61 are the tables the refinement engine keeps out of its
   loops, generic and keyed alike: a creation inside a marked region is an
   allocation like any other. *)
let test_alloc02 () =
  check_diags "bad_alloc02"
    [
      (11, "ALLOC02");
      (12, "ALLOC02");
      (19, "ALLOC02");
      (26, "ALLOC02");
      (26, "ALLOC02");
      (27, "ALLOC02");
      (27, "ALLOC02");
      (27, "ALLOC02");
      (35, "ALLOC02");
      (37, "ALLOC02");
      (58, "ALLOC02");
      (59, "ALLOC02");
      (60, "ALLOC02");
      (61, "ALLOC02");
    ]
    (typed_lint ~only:[ "ALLOC02" ] "bad_alloc02.ml")

(* The unannotated lower-bound search of a tree-cover probe, a string
   [compare], an int-list [=] through a local helper and an escaping
   string [=]; none of the int, float, char, bool or constant-variant
   comparisons.  In a hot-path module the escaping [=] of line 59 is seen
   by both halves of the rule and still reported once; the unmarked
   [List.sort compare] of line 55 is added. *)
let test_poly02 () =
  check_diags "bad_poly02"
    [ (23, "POLY02"); (28, "POLY02"); (33, "POLY02"); (59, "POLY02") ]
    (typed_lint ~only:[ "POLY02" ] "bad_poly02.ml");
  check_diags "bad_poly02 under lib/core"
    [
      (23, "POLY02"); (28, "POLY02"); (33, "POLY02"); (55, "POLY02"); (59, "POLY02");
    ]
    (typed_lint ~only:[ "POLY02" ] ~prefix:"lib/core/" "bad_poly02.ml")

let test_span01 () =
  check_diags "bad_span01"
    [ (12, "SPAN01"); (19, "SPAN01"); (25, "SPAN01"); (33, "SPAN01") ]
    (typed_lint ~only:[ "SPAN01" ] "bad_span01.ml")

(* The typed driver also runs the syntactic tier on each unit's source;
   suppression directives (comments and [@lint.allow] attributes) must
   silence findings from both. *)
let test_suppressed_typed () =
  check_diags "suppressed_typed" [] (typed_lint "suppressed_typed.ml")

(* A self-contained clean file must stay clean under the full typed run
   (all ten rules, both tiers), in a hot-path directory too. *)
let test_typed_clean () =
  check_diags "clean_typed" [] (typed_lint "clean_typed.ml");
  check_diags "clean_typed under lib/core" []
    (typed_lint ~prefix:"lib/core/" "clean_typed.ml")

let test_callgraph () =
  let path = fixture "callgraph.ml" in
  match Lint_cmt.typecheck_ml ~prefix:"" path with
  | Error e -> Alcotest.failf "typecheck failed: %s" e
  | Ok u ->
      let prog = Lint_program.build [ u ] in
      Alcotest.(check (list string))
        "entry edges"
        [ "Callgraph.Inner.twice"; "Callgraph.double" ]
        (Lint_program.callees prog "Callgraph.entry");
      Alcotest.(check (list string))
        "twice edges" [ "Callgraph.double" ]
        (Lint_program.callees prog "Callgraph.Inner.twice");
      Alcotest.(check (list string))
        "double leaf" []
        (Lint_program.callees prog "Callgraph.double")

let () =
  Alcotest.run "qpgc-lint"
    [
      ( "rules",
        [
          Alcotest.test_case "CMP01 fixture" `Quick test_cmp01;
          Alcotest.test_case "PARTIAL01 fixture" `Quick test_partial01;
          Alcotest.test_case "POLY01 fixture" `Quick test_poly01;
          Alcotest.test_case "CSR02 fixture" `Quick test_csr02;
          Alcotest.test_case "CSR02 exempts lib/graph" `Quick
            test_csr02_in_scope;
          Alcotest.test_case "ALLOC01 fixture" `Quick test_alloc01;
          Alcotest.test_case "OBS01 fixture" `Quick test_obs01;
          Alcotest.test_case "OBS01 exempts lib/obs" `Quick
            test_obs01_in_scope;
          Alcotest.test_case "SRV01 fixture" `Quick test_srv01;
          Alcotest.test_case "SRV01 scoped to lib/server" `Quick
            test_srv01_out_of_scope;
          Alcotest.test_case "OBS02 fixture" `Quick test_obs02;
          Alcotest.test_case "OBS02 scoped to daemon layers" `Quick
            test_obs02_out_of_scope;
        ] );
      ( "classification",
        [
          Alcotest.test_case "clean file" `Quick test_clean;
          Alcotest.test_case "hot-only rules off cold" `Quick test_cold;
        ] );
      ( "typed rules",
        [
          Alcotest.test_case "PARA02 fixture" `Quick test_para02;
          Alcotest.test_case "PARA01 cases" `Quick test_para01_cases;
          Alcotest.test_case "PARA01 cases, hot run" `Quick
            test_para01_cases_hot;
          Alcotest.test_case "BOUNDS01 fixture" `Quick test_bounds01;
          Alcotest.test_case "ALLOC02 fixture" `Quick test_alloc02;
          Alcotest.test_case "POLY02 fixture" `Quick test_poly02;
          Alcotest.test_case "SPAN01 fixture" `Quick test_span01;
          Alcotest.test_case "clean file (typed)" `Quick test_typed_clean;
          Alcotest.test_case "call graph edges" `Quick test_callgraph;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "all forms silence" `Quick test_suppressed;
          Alcotest.test_case "typed tier forms silence" `Quick
            test_suppressed_typed;
        ] );
      ( "driver",
        [
          Alcotest.test_case "parse error surfaces" `Quick test_parse_error;
          Alcotest.test_case "json output" `Quick test_json;
        ] );
    ]
