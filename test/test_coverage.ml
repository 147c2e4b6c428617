(* covirt.replay Coverage and Corpus: the bitset semantics, the
   zero-cost-when-armed guarantee, the on-disk corpus codec, and the
   coverage-guided fuzzing loop (promotion, reproducibility, growth
   over the unguided baseline, edge-preserving minimization). *)

open Covirt_replay

let with_sanitizer_restored f =
  let had = Covirt_hw.Sanitize.requested () in
  Fun.protect
    ~finally:(fun () -> if not had then Covirt_hw.Sanitize.release ())
    f

(* --- the bitset ------------------------------------------------------ *)

let test_map_semantics () =
  Alcotest.(check int) "empty has no edges" 0 (Coverage.count Coverage.empty);
  Alcotest.(check bool) "empty = empty" true
    (Coverage.equal Coverage.empty Coverage.empty);
  for i = 0 to Coverage.total - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "edge %d unset in empty" i)
      false
      (Coverage.mem Coverage.empty i);
    (* Every edge has a stable, non-empty name. *)
    Alcotest.(check bool)
      (Printf.sprintf "edge %d named" i)
      true
      (String.length (Coverage.edge_name i) > 0)
  done;
  Alcotest.(check_raises) "edge_name out of range"
    (Invalid_argument "Coverage.edge_name") (fun () ->
      ignore (Coverage.edge_name Coverage.total));
  Alcotest.(check int) "union with empty adds nothing" 0
    (Coverage.count (Coverage.union Coverage.empty Coverage.empty));
  Alcotest.(check bool) "empty subset of empty" true
    (Coverage.subset Coverage.empty ~of_:Coverage.empty);
  Alcotest.(check int) "no new edges over itself" 0
    (Coverage.new_edges Coverage.empty ~base:Coverage.empty)

let test_map_bytes_round_trip () =
  let bytes = Coverage.to_bytes Coverage.empty in
  (match Coverage.of_bytes bytes with
  | Ok c -> Alcotest.(check bool) "roundtrip" true (Coverage.equal c Coverage.empty)
  | Error e -> Alcotest.failf "of_bytes rejected its own encoding: %s" e);
  (match Coverage.of_bytes (bytes ^ "\x00") with
  | Ok _ -> Alcotest.fail "of_bytes accepted a longer map"
  | Error _ -> ());
  match Coverage.of_bytes "" with
  | Ok _ -> Alcotest.fail "of_bytes accepted the empty string"
  | Error _ -> ()

(* A replayed trial batch under an armed map: the capture must hold
   real edges, and union/new_edges/subset must behave on them. *)
let captured_coverage () =
  with_sanitizer_restored @@ fun () ->
  let r = Scenario.record ~config:"full" ~seed:7 ~trials:2 () in
  Coverage.arm ();
  Fun.protect ~finally:Coverage.disarm (fun () ->
      ignore (Coverage.capture () : Coverage.t);
      ignore (Replayer.run r.Scenario.trace : Scenario.report);
      Coverage.capture ())

let test_collection_captures_edges () =
  let c = captured_coverage () in
  Alcotest.(check bool) "a replay covers edges" true (Coverage.count c > 0);
  Alcotest.(check bool) "covers fewer than all" true
    (Coverage.count c < Coverage.total);
  Alcotest.(check bool) "self subset" true (Coverage.subset c ~of_:c);
  Alcotest.(check int) "union is idempotent" (Coverage.count c)
    (Coverage.count (Coverage.union c c));
  Alcotest.(check int) "no new edges over itself" 0
    (Coverage.new_edges c ~base:c);
  Alcotest.(check int) "new edges over empty = count" (Coverage.count c)
    (Coverage.new_edges c ~base:Coverage.empty);
  (* Determinism: replaying the same trace captures the same map. *)
  Alcotest.(check bool) "same trace, same map" true
    (Coverage.equal c (captured_coverage ()))

let test_coverage_armed_is_zero_cost () =
  (* The tentpole guarantee: the full golden scenario set, run with
     the coverage taps armed, produces byte-identical output to the
     committed snapshot (the same gate the recorder passes). *)
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let expected = read_file "golden/translation.expected" in
  Coverage.arm ();
  let actual =
    Fun.protect ~finally:Coverage.disarm Covirt_harness.Golden.capture
  in
  Alcotest.(check bool)
    "golden capture byte-identical with coverage armed" true
    (String.equal expected actual)

(* --- more than one subscriber on the probe bus ------------------------ *)

let soak_scenario =
  Trace.Soak_shard { seed = 5; lo = 0; hi = 12; sanitize = true }

(* Re-run one soak shard with the chosen subscribers armed; return the
   recorder's trace bytes and the coverage map (empty for whichever is
   not armed). *)
let observe_soak ~record ~collect =
  with_sanitizer_restored @@ fun () ->
  if record then Recorder.arm ();
  if collect then Coverage.arm ();
  Fun.protect
    ~finally:(fun () ->
      Recorder.disarm ();
      Coverage.disarm ())
    (fun () ->
      ignore
        (Covirt_resilience.Soak.replay_shard ~on_trial:Recorder.set_slot
           ~shard_seed:5 ~lo:0 ~hi:12 ~sanitize:true ()
          : Covirt_resilience.Soak.result);
      let events, dropped = Recorder.capture () in
      ( Trace.encode (Trace.make ~dropped ~scenario:soak_scenario events),
        Coverage.capture () ))

let test_subscribers_independent () =
  let trace, _ = observe_soak ~record:true ~collect:false in
  let _, map = observe_soak ~record:false ~collect:true in
  let both_trace, both_map = observe_soak ~record:true ~collect:true in
  let empty, _ = observe_soak ~record:false ~collect:false in
  Alcotest.(check bool) "the shard records events" false
    (String.equal trace empty);
  Alcotest.(check bool) "the shard covers edges" true (Coverage.count map > 0);
  Alcotest.(check string) "both armed: trace bytes = recorder alone" trace
    both_trace;
  Alcotest.(check bool) "both armed: map = coverage alone" true
    (Coverage.equal map both_map)

(* Two domains arm and disarm both subscribers in a loop.  With the
   count and the guard updated as two steps, one domain's late
   [false] store could land after the other's arm, leaving an armed
   domain silently unobserved; one lock for both makes that
   impossible. *)
let test_arm_disarm_race () =
  with_sanitizer_restored @@ fun () ->
  let module P = Covirt_obs.Probe in
  let record () =
    Trace.digest
      (Scenario.record ~config:"full" ~seed:7 ~trials:2 ()).Scenario.trace
  in
  let reference = record () in
  (* Arm/disarm until [stop]; count the arms that found the bus off. *)
  let churn stop =
    let lost = ref 0 and n = ref 0 in
    while not (stop !n) do
      Recorder.arm ~capacity:16 ();
      if not !P.on then incr lost;
      Coverage.arm ();
      Recorder.disarm ();
      if not !P.on then incr lost;
      Coverage.disarm ();
      incr n
    done;
    !lost
  in
  let loop () = churn (fun n -> n >= 20_000) in
  let a =
    Domain.spawn (fun () ->
        let lost = loop () in
        Recorder.arm ~capacity:16 ();
        lost)
  in
  let b = Domain.spawn loop in
  let lost = Domain.join a + Domain.join b in
  Alcotest.(check int) "no arm found the bus off" 0 lost;
  Alcotest.(check int) "the domain that exited armed still counts" 1
    (P.armed ());
  Alcotest.(check bool) "guard = (count > 0)" true !P.on;
  (* Release the count the exited domain left behind. *)
  P.disarm ();
  Alcotest.(check bool) "bus off once nothing is armed" false !P.on;
  let started = Atomic.make false and stop = Atomic.make false in
  let b =
    Domain.spawn (fun () ->
        churn (fun _ ->
            Atomic.set started true;
            Atomic.get stop))
  in
  let a =
    Domain.spawn (fun () ->
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        Recorder.arm ();
        let d = record () in
        Recorder.disarm ();
        Atomic.set stop true;
        d)
  in
  let digest = Domain.join a in
  Alcotest.(check int) "no arm found the bus off (second loop)" 0
    (Domain.join b);
  Alcotest.(check string) "a domain armed throughout records every exit"
    reference digest;
  Alcotest.(check bool) "guard = (count > 0) after both join"
    (P.armed () > 0) !P.on

(* --- the corpus codec ------------------------------------------------ *)

let sample_entry () =
  with_sanitizer_restored @@ fun () ->
  let r = Scenario.record ~config:"mem" ~seed:11 ~trials:2 () in
  { Corpus.trace = r.Scenario.trace; coverage = captured_coverage () }

let test_corpus_round_trip () =
  let e = sample_entry () in
  match Corpus.decode (Corpus.encode e) with
  | Ok e' ->
      Alcotest.(check bool) "trace round-trips" true
        (Trace.equal e.Corpus.trace e'.Corpus.trace);
      Alcotest.(check bool) "coverage round-trips" true
        (Coverage.equal e.Corpus.coverage e'.Corpus.coverage)
  | Error why -> Alcotest.failf "decode failed: %s" why

let test_corpus_rejects_malformed () =
  let bytes = Corpus.encode (sample_entry ()) in
  let reject what s =
    match Corpus.decode s with
    | Ok _ -> Alcotest.failf "decode accepted %s" what
    | Error _ -> ()
  in
  reject "empty input" "";
  reject "bad magic" ("XVCS" ^ String.sub bytes 4 (String.length bytes - 4));
  reject "truncated entry" (String.sub bytes 0 (String.length bytes - 3));
  reject "truncated to header" (String.sub bytes 0 5);
  reject "trailing garbage" (bytes ^ "\x00");
  let b = Bytes.of_string bytes in
  Bytes.set b 4 '\x7f';
  reject "unknown version" (Bytes.to_string b)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "covirt-corpus-%d-%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    dir

let test_corpus_save_load () =
  let e = sample_entry () in
  let dir = fresh_dir () in
  let path = Corpus.save ~dir e in
  Alcotest.(check string) "content-addressed filename"
    (Filename.concat dir (Corpus.digest e ^ Corpus.extension))
    path;
  (* Idempotent: saving again changes nothing. *)
  ignore (Corpus.save ~dir e : string);
  match Corpus.load ~dir with
  | Error why -> Alcotest.failf "load failed: %s" why
  | Ok entries ->
      Alcotest.(check int) "one entry" 1 (List.length entries);
      Alcotest.(check bool) "reload reproduces the coverage totals" true
        (Coverage.equal
           (Corpus.union_coverage [ e ])
           (Corpus.union_coverage entries))

let test_corpus_load_missing_and_malformed () =
  (match Corpus.load ~dir:"/nonexistent/covirt-corpus" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "missing dir yielded entries"
  | Error why -> Alcotest.failf "missing dir should be empty, got: %s" why);
  let dir = fresh_dir () in
  let bad = Filename.concat dir ("deadbeef" ^ Corpus.extension) in
  let oc = open_out_bin bad in
  output_string oc "CVCS\x01garbage";
  close_out oc;
  match Corpus.load ~dir with
  | Ok _ -> Alcotest.fail "load accepted a malformed entry"
  | Error why ->
      Alcotest.(check bool) "error names the offending file" true
        (let rec mem i =
           i >= 0
           && (String.length why - i >= 8
               && String.sub why i 8 = "deadbeef"
              || mem (i - 1))
         in
         mem (String.length why - 8))

(* --- the guided loop ------------------------------------------------- *)

let test_guided_fuzz_reproducible () =
  with_sanitizer_restored @@ fun () ->
  let run () = Fuzzer.run ~trials:8 ~seed:5 ~coverage:true () in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "same seed, same result" true (r1 = r2);
  Alcotest.(check (list string)) "same promoted digests"
    (List.map Corpus.digest r1.Fuzzer.promoted)
    (List.map Corpus.digest r2.Fuzzer.promoted)

let test_guided_fuzz_grows_corpus () =
  with_sanitizer_restored @@ fun () ->
  let guided = Fuzzer.run ~trials:10 ~seed:5 ~coverage:true () in
  let unguided = Fuzzer.run ~trials:10 ~seed:5 () in
  Alcotest.(check bool) "guided run promotes entries" true
    (guided.Fuzzer.promoted <> []);
  Alcotest.(check int) "unguided run promotes nothing" 0
    (List.length unguided.Fuzzer.promoted);
  Alcotest.(check bool) "guided run found edges" true
    (guided.Fuzzer.new_edges > 0);
  (* Seeding the promoted entries back in: the accumulated baseline
     must shrink the second run's new-edge count (adaptivity). *)
  let again =
    Fuzzer.run ~trials:10 ~seed:5 ~coverage:true
      ~corpus:guided.Fuzzer.promoted ()
  in
  Alcotest.(check bool) "corpus baseline absorbs known edges" true
    (again.Fuzzer.new_edges < guided.Fuzzer.new_edges)

let test_minimizer_preserves_edges () =
  with_sanitizer_restored @@ fun () ->
  let r = Scenario.record ~config:"full" ~seed:7 ~trials:2 () in
  let trace = r.Scenario.trace in
  let edges = captured_coverage () in
  let minimized, _ =
    Minimizer.minimize ~keep:(fun _ -> true) ~preserve_edges:edges
      ~max_probes:64 trace
  in
  (* The reduction must still cover every preserved edge. *)
  Coverage.arm ();
  let after =
    Fun.protect ~finally:Coverage.disarm (fun () ->
        ignore (Coverage.capture () : Coverage.t);
        ignore (Replayer.run minimized : Scenario.report);
        Coverage.capture ())
  in
  Alcotest.(check bool) "covering edges preserved" true
    (Coverage.subset edges ~of_:after)

let () =
  Alcotest.run "coverage"
    [
      ( "map",
        [
          Alcotest.test_case "bitset semantics and edge names" `Quick
            test_map_semantics;
          Alcotest.test_case "to_bytes/of_bytes total round-trip" `Quick
            test_map_bytes_round_trip;
          Alcotest.test_case "a replay captures a deterministic map" `Slow
            test_collection_captures_edges;
          Alcotest.test_case "coverage armed leaves golden byte-identical"
            `Slow test_coverage_armed_is_zero_cost;
        ] );
      ( "bus",
        [
          Alcotest.test_case "recorder and coverage observe independently"
            `Slow test_subscribers_independent;
          Alcotest.test_case "arm/disarm race keeps an armed domain observed"
            `Slow test_arm_disarm_race;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "entry encode/decode round-trip" `Slow
            test_corpus_round_trip;
          Alcotest.test_case "rejects malformed entries" `Slow
            test_corpus_rejects_malformed;
          Alcotest.test_case "save/load reproduces coverage totals" `Slow
            test_corpus_save_load;
          Alcotest.test_case "missing dir empty, malformed file typed error"
            `Slow test_corpus_load_missing_and_malformed;
        ] );
      ( "guided",
        [
          Alcotest.test_case "same seed, same promoted corpus" `Slow
            test_guided_fuzz_reproducible;
          Alcotest.test_case "guided run grows the corpus, unguided does not"
            `Slow test_guided_fuzz_grows_corpus;
          Alcotest.test_case "minimizer preserves covering edges" `Slow
            test_minimizer_preserves_edges;
        ] );
    ]
