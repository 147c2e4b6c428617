(* covirt.lint: every check fires on its seeded fixture with exact
   counts and line numbers; suppressions are accounted, not dropped;
   string/comment tokens never masquerade as code (the regex linter's
   false-positive surface); the tree engine reports mli coverage,
   exit codes and the layer DOT; and the live tree itself is clean. *)

open Covirt_lint

(* --- plumbing -------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Analyze a fixture file under a virtual repo-relative path, so the
   path-scoped checks see the layer the fixture impersonates. *)
let analyze ?(path = "lib/hw/fx.ml") name =
  Engine.analyze_string ~path
    ~text:(read_file (Filename.concat "lint_fixtures" name))

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let lines fs = List.sort compare (List.map (fun f -> f.Finding.line) fs)
let with_check c fs = List.filter (fun f -> f.Finding.check = c) fs

let check_only ~msg c fs =
  Alcotest.(check (list string))
    (msg ^ ": all findings carry the expected check id")
    (List.map (fun _ -> c) fs)
    (List.map (fun f -> f.Finding.check) fs)

let no_noise ?(suppressed = 0) ~msg (_, supp, parse_error) =
  Alcotest.(check int) (msg ^ ": suppressed count") suppressed
    (List.length supp);
  Alcotest.(check bool) (msg ^ ": no parse error") true (parse_error = None)

(* --- one fixture per check ------------------------------------------- *)

let test_no_print () =
  let ((fs, _, _) as r) = analyze "fx_no_print.ml" in
  no_noise ~msg:"no-print" r;
  check_only ~msg:"no-print" "no-print" fs;
  Alcotest.(check (list int)) "one finding per print site" [ 1; 2; 3 ]
    (lines fs)

let test_guarded_obs () =
  let ((fs, _, _) as r) = analyze "fx_obs_unguarded.ml" in
  no_noise ~msg:"guarded-obs" r;
  Alcotest.(check (list int))
    "unguarded Metrics.add and Span.instant both flagged" [ 2; 3 ]
    (lines (with_check "guarded-obs" fs));
  Alcotest.(check (list int))
    "the same sites breach the zero-cost tap contract" [ 2; 3 ]
    (lines (with_check "tap-zero-cost" fs));
  Alcotest.(check int) "nothing else fires" 4 (List.length fs)

let test_tap_impure_guard () =
  let ((fs, _, _) as r) = analyze ~path:"lib/core/fx.ml" "fx_tap_impure.ml" in
  no_noise ~msg:"tap-impure" r;
  check_only ~msg:"tap-impure" "tap-zero-cost" fs;
  Alcotest.(check (list int))
    "guard with a call is impure; the flag deref alone is not enough" [ 5 ]
    (lines fs);
  match fs with
  | [ f ] ->
      Alcotest.(check bool) "message names the pure-flag contract" true
        (contains ~affix:"pure flag" f.Finding.message)
  | _ -> Alcotest.fail "expected exactly one finding"

let test_sanitize_and_tap_refs () =
  let ((fs, _, _) as r) =
    analyze ~path:"lib/resilience/fx.ml" "fx_sanitize_tap.ml"
  in
  no_noise ~msg:"sanitize-tap" r;
  check_only ~msg:"sanitize-tap" "tap-zero-cost" fs;
  Alcotest.(check (list int))
    "unguarded Sanitize.access and !tap ref flagged; guarded tap is not"
    [ 1; 4 ] (lines fs)

let test_fleet_monopoly_spawn () =
  let ((fs, _, _) as r) =
    analyze ~path:"lib/harness/fx.ml" "fx_fleet_spawn.ml"
  in
  no_noise ~msg:"fleet-spawn" r;
  check_only ~msg:"fleet-spawn" "fleet-monopoly" fs;
  Alcotest.(check (list int)) "Domain.spawn outside lib/fleet" [ 1 ] (lines fs)

let test_fleet_monopoly_hw () =
  let ((fs, _, _) as r) = analyze ~path:"lib/fleet/fx.ml" "fx_fleet_hw.ml" in
  no_noise ~msg:"fleet-hw" r;
  check_only ~msg:"fleet-hw" "fleet-monopoly" fs;
  Alcotest.(check (list int)) "Covirt_hw reference inside lib/fleet" [ 1 ]
    (lines fs)

let test_replay_confinement () =
  let ((fs, _, _) as r) = analyze ~path:"lib/core/fx.ml" "fx_replay_leak.ml" in
  no_noise ~msg:"replay" r;
  check_only ~msg:"replay" "replay-confinement" fs;
  Alcotest.(check (list int))
    "Covirt_replay reference and the magic literal both flagged" [ 1; 3 ]
    (lines fs)

let test_warm_alloc () =
  let ((fs, _, _) as r) = analyze "fx_warm_alloc.ml" in
  no_noise ~msg:"warm-alloc" r;
  check_only ~msg:"warm-alloc" "warm-alloc" fs;
  Alcotest.(check (list int))
    "closure/tuple/cons/array/Some/record/List/Printf each flagged once; \
     the exception-branch cold fill and the !flag-guarded Some are exempt"
    [ 8; 9; 10; 11; 12; 13; 14; 15 ]
    (lines fs)

let test_warm_marker_lost () =
  let fs, supp, pe =
    Engine.analyze_string ~path:"lib/hw/tlb.ml" ~text:"let translate t g = g\n"
  in
  Alcotest.(check bool) "parses" true (pe = None);
  Alcotest.(check int) "no suppressions" 0 (List.length supp);
  check_only ~msg:"warm-marker" "warm-alloc" fs;
  Alcotest.(check int) "a designated hot-path file without markers fails" 1
    (List.length fs)

let test_layer_deps () =
  let ((fs, _, _) as r) = analyze "fx_layer_breach.ml" in
  no_noise ~msg:"layer" r;
  check_only ~msg:"layer" "layer-deps" fs;
  Alcotest.(check (list int))
    "tap-surface breach and undeclared edge both flagged" [ 1; 2 ] (lines fs);
  let msgs = List.map (fun f -> f.Finding.message) fs in
  Alcotest.(check bool) "one message cites the tap surface" true
    (List.exists (contains ~affix:"tap surface") msgs);
  Alcotest.(check bool) "one message cites the rule table" true
    (List.exists (contains ~affix:"rule table") msgs)

let test_determinism () =
  let ((fs, _, _) as r) =
    analyze ~path:"lib/fleet/fx.ml" "fx_determinism.ml"
  in
  no_noise ~msg:"determinism" r;
  check_only ~msg:"determinism" "determinism" fs;
  Alcotest.(check (list int))
    "self_init, gettimeofday and merge-layer Hashtbl.fold all flagged"
    [ 1; 2; 3 ] (lines fs)

(* --- suppressions, clean module, parse errors ------------------------ *)

let test_suppression_accounting () =
  let fs, supp, pe = analyze "fx_suppressed.ml" in
  Alcotest.(check bool) "parses" true (pe = None);
  Alcotest.(check (list int)) "the uncovered print still fires" [ 4 ]
    (lines fs);
  Alcotest.(check (list int)) "the covered print is suppressed, not lost"
    [ 2 ] (lines supp);
  check_only ~msg:"suppressed" "no-print" supp

let test_clean_module () =
  let fs, supp, pe = analyze "fx_clean.ml" in
  Alcotest.(check bool) "parses" true (pe = None);
  Alcotest.(check int) "guarded emission is clean" 0 (List.length fs);
  Alcotest.(check int) "nothing suppressed" 0 (List.length supp)

let test_parse_error () =
  let fs, _, pe = analyze "fx_parse_error.ml" in
  Alcotest.(check int) "no findings from an unparseable file" 0
    (List.length fs);
  match pe with
  | Some msg ->
      Alcotest.(check bool) "error message is non-empty" true
        (String.length msg > 0)
  | None -> Alcotest.fail "expected a parse error"

(* --- the regex linter's false-positive surface (satellite) ----------- *)

let test_tokens_in_strings_inert () =
  let ((fs, _, _) as r) = analyze "fx_fp_strings.ml" in
  no_noise ~msg:"fp-strings" r;
  Alcotest.(check int)
    "banned tokens inside string literals (including a fake warm-end) \
     produce no findings"
    0 (List.length fs)

let test_tokens_in_comments_inert () =
  let ((fs, _, _) as r) = analyze "fx_fp_comments.ml" in
  no_noise ~msg:"fp-comments" r;
  Alcotest.(check int)
    "banned tokens and the magic literal inside comments produce no findings"
    0 (List.length fs)

let test_comment_scanner () =
  let comments =
    Source.scan_comments
      "let a = \"(* not a comment *)\"\n(* one (* nested *) comment\nspanning *)\nlet c = '\"'\nlet q = {x|(* inert |x}\n(* last *)\n"
  in
  Alcotest.(check int) "delimiters in strings/quoted strings are inert" 2
    (List.length comments);
  match comments with
  | [ first; last ] ->
      Alcotest.(check int) "nested comment starts on line 2" 2 first.Source.c_line;
      Alcotest.(check int) "and ends on line 3" 3 first.Source.c_end_line;
      Alcotest.(check int) "trailing comment on line 6" 6 last.Source.c_line
  | _ -> Alcotest.fail "unexpected comment shapes"

let test_catalogue () =
  Alcotest.(check int) "ten checks registered" 10 (List.length Checks.catalogue);
  let ids = List.map fst Checks.catalogue in
  Alcotest.(check int) "check ids are unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "fixture-backed id %s is in the catalogue" id)
        true (List.mem id ids))
    [ "mli-presence"; "no-print"; "guarded-obs"; "tap-zero-cost";
      "fleet-monopoly"; "replay-confinement"; "warm-alloc"; "layer-deps";
      "determinism"; "unused-export" ]

(* --- tree-level engine behaviour ------------------------------------- *)

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let with_tree files f =
  let dir = Filename.temp_file "covirt_lint_fx" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      List.iter
        (fun (rel, text) ->
          let rec ensure d = function
            | [] | [ _ ] -> ()
            | seg :: rest ->
                let d = Filename.concat d seg in
                if not (Sys.file_exists d) then Unix.mkdir d 0o700;
                ensure d rest
          in
          ensure dir (String.split_on_char '/' rel);
          let oc = open_out_bin (Filename.concat dir rel) in
          output_string oc text;
          close_out oc)
        files;
      f dir)

let test_mli_presence_and_exit_codes () =
  with_tree
    [ ("lib/widget/gear.ml", "let x = 1\n");
      ("lib/widget/gear.mli", "val x : int\n");
      ("bin/main.ml", "let () = ignore Gear.x\n") ]
    (fun root ->
      let r = Engine.run ~root in
      Alcotest.(check int) "covered module: clean tree exits 0" 0
        (Engine.exit_code r));
  with_tree
    [ ("lib/widget/gear.ml", "let x = 1\n") ]
    (fun root ->
      let r = Engine.run ~root in
      check_only ~msg:"mli" "mli-presence" r.Engine.findings;
      Alcotest.(check int) "a bare .ml yields one mli-presence finding" 1
        (List.length r.Engine.findings);
      Alcotest.(check int) "findings exit 1" 1 (Engine.exit_code r);
      let json = Engine.to_json r in
      Alcotest.(check bool) "json carries the finding" true
        (contains ~affix:"mli-presence" json);
      Alcotest.(check bool) "json carries the exit code" true
        (contains ~affix:"\"exit_code\": 1" json));
  with_tree
    [ ("lib/widget/bad.ml", "let broken = (\n");
      ("lib/widget/bad.mli", "val broken : int\n") ]
    (fun root ->
      let r = Engine.run ~root in
      Alcotest.(check int) "one parse error recorded" 1
        (List.length r.Engine.parse_errors);
      Alcotest.(check int) "tool error outranks findings: exit 2" 2
        (Engine.exit_code r));
  Alcotest.check_raises "a root without lib/ is a tool error"
    (Engine.No_tree "no lib/ under /nonexistent-covirt-root") (fun () ->
      ignore (Engine.run ~root:"/nonexistent-covirt-root"))

(* The unused-export fixtures as a three-unit tree: the interface and
   its implementation in lib/, a user of two exports under [user_dir]. *)
let unused_export_tree user_dir =
  [ ("lib/widget/gear.mli", read_file "lint_fixtures/fx_unused_export.mli");
    ("lib/widget/gear.ml", read_file "lint_fixtures/fx_unused_export.ml");
    ( user_dir ^ "/user.ml",
      read_file "lint_fixtures/fx_unused_export_user.ml" ) ]

let test_unused_export () =
  with_tree (unused_export_tree "test") (fun root ->
      let r = Engine.run ~root in
      check_only ~msg:"unused-export" "unused-export" r.Engine.findings;
      Alcotest.(check (list (pair string int)))
        "the dead val and the dead nested val are flagged at their .mli \
         lines; self-use in gear.ml does not count, a use through open or \
         M.( ... ) in another unit does"
        [ ("lib/widget/gear.mli", 1); ("lib/widget/gear.mli", 7) ]
        (List.map
           (fun f -> (f.Finding.file, f.Finding.line))
           r.Engine.findings);
      Alcotest.(check (list int)) "the suppressed val is counted, not dropped"
        [ 5 ] (lines r.Engine.suppressed);
      check_only ~msg:"unused-export suppressed" "unused-export"
        r.Engine.suppressed;
      Alcotest.(check int) "findings exit 1" 1 (Engine.exit_code r));
  with_tree (unused_export_tree "test/lint_fixtures") (fun root ->
      let r = Engine.run ~root in
      Alcotest.(check (list int))
        "uses inside test/lint_fixtures are not references" [ 1; 2; 3; 7 ]
        (lines r.Engine.findings))

let test_layer_graph_dot () =
  with_tree
    [ ("lib/hw/gear.ml", "let draw = Covirt_sim.Rng.draw\n");
      ("lib/hw/gear.mli", "val draw : int\n");
      ("bin/main.ml", "let () = ignore Gear.draw\n") ]
    (fun root ->
      let r = Engine.run ~root in
      Alcotest.(check int) "an allowed edge is not a finding" 0
        (Engine.exit_code r);
      let dot = Engine.dot r in
      Alcotest.(check bool) "DOT records the hw -> sim edge" true
        (contains ~affix:"\"hw\" -> \"sim\"" dot);
      Alcotest.(check bool) "edge labelled with the referenced submodule" true
        (contains ~affix:"Rng" dot))

(* --- the live tree polices itself ------------------------------------ *)

let test_live_tree_clean () =
  (* cwd is _build/default/test; the dune deps materialize ../lib and
     ../bin, the same sources [dune build @lint] gates. *)
  let r = Engine.run ~root:".." in
  Alcotest.(check (list string)) "no parse errors in the live tree" []
    (List.map fst r.Engine.parse_errors);
  Alcotest.(check (list string)) "zero unsuppressed findings" []
    (List.map
       (fun f -> Format.asprintf "%a" Finding.pp f)
       r.Engine.findings);
  Alcotest.(check bool) "a real tree was scanned" true (r.Engine.files > 100);
  Alcotest.(check (list string))
    "exactly the documented suppression survives (ept pt-slot cold fill)"
    [ "lib/hw/ept.ml:warm-alloc" ]
    (List.map
       (fun f -> f.Finding.file ^ ":" ^ f.Finding.check)
       r.Engine.suppressed)

let () =
  Alcotest.run "lint"
    [
      ( "checks",
        [
          Alcotest.test_case "no-print fires per site" `Quick test_no_print;
          Alcotest.test_case "unguarded obs emissions" `Quick test_guarded_obs;
          Alcotest.test_case "impure tap guard" `Quick test_tap_impure_guard;
          Alcotest.test_case "sanitize and tap-ref sites" `Quick
            test_sanitize_and_tap_refs;
          Alcotest.test_case "Domain.spawn outside fleet" `Quick
            test_fleet_monopoly_spawn;
          Alcotest.test_case "fleet referencing hw" `Quick
            test_fleet_monopoly_hw;
          Alcotest.test_case "replay refs and magic literal" `Quick
            test_replay_confinement;
          Alcotest.test_case "warm-region allocation shapes" `Quick
            test_warm_alloc;
          Alcotest.test_case "lost warm markers" `Quick test_warm_marker_lost;
          Alcotest.test_case "layer rule table" `Quick test_layer_deps;
          Alcotest.test_case "determinism bans" `Quick test_determinism;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "suppressions counted, not lost" `Quick
            test_suppression_accounting;
          Alcotest.test_case "clean module" `Quick test_clean_module;
          Alcotest.test_case "parse error is typed" `Quick test_parse_error;
          Alcotest.test_case "tokens in strings are inert" `Quick
            test_tokens_in_strings_inert;
          Alcotest.test_case "tokens in comments are inert" `Quick
            test_tokens_in_comments_inert;
          Alcotest.test_case "comment scanner" `Quick test_comment_scanner;
          Alcotest.test_case "catalogue is closed over the checks" `Quick
            test_catalogue;
        ] );
      ( "engine",
        [
          Alcotest.test_case "mli presence and exit codes" `Quick
            test_mli_presence_and_exit_codes;
          Alcotest.test_case "layer graph DOT" `Quick test_layer_graph_dot;
          Alcotest.test_case "unused exports" `Quick test_unused_export;
          Alcotest.test_case "live tree is clean" `Quick test_live_tree_clean;
        ] );
    ]
