(* covirt.replay: the codec, the replay contract, the minimizer and
   the fuzzer's fleet determinism.

   The replay contract under test: a trace is the complete set of
   nondeterministic inputs of a run, so record -> replay -> re-record
   yields byte-identical traces; a mutated trace still replays to a
   fixed point (replay of the re-capture equals the re-capture); and
   recording armed never perturbs the run it observes (the golden
   translation capture stays byte-identical). *)

open Covirt_replay

let mib = Covirt_sim.Units.mib

(* --- codec ----------------------------------------------------------- *)

let all_events =
  [
    Trace.Exit
      {
        slot = 0;
        cpu = 1;
        enclave = 2;
        tsc = 123456;
        reason = Trace.X_ept { gpa = 0x4000_0040; access = 1; not_mapped = true };
      };
    Trace.Exit
      {
        slot = 0;
        cpu = 1;
        enclave = 2;
        tsc = 123500;
        reason = Trace.X_icr { dest = 3; vector = 0xd1; kind = 0 };
      };
    Trace.Exit
      {
        slot = 1;
        cpu = 3;
        enclave = 1;
        tsc = 9;
        reason = Trace.X_msr { msr = 0x1b; write = true; value = -1L };
      };
    Trace.Exit
      {
        slot = 1;
        cpu = 3;
        enclave = 1;
        tsc = 10;
        reason = Trace.X_io { port = 0x3f8; write = false; value = 0xff };
      };
    Trace.Exit
      { slot = 1; cpu = 3; enclave = 1; tsc = 11; reason = Trace.X_cpuid };
    Trace.Exit
      { slot = 1; cpu = 3; enclave = 1; tsc = 12; reason = Trace.X_xsetbv };
    Trace.Exit { slot = 1; cpu = 3; enclave = 1; tsc = 13; reason = Trace.X_hlt };
    Trace.Exit
      {
        slot = 2;
        cpu = 0;
        enclave = 0;
        tsc = 14;
        reason = Trace.X_intr { vector = 32 };
      };
    Trace.Exit { slot = 2; cpu = 0; enclave = 0; tsc = 15; reason = Trace.X_nmi };
    Trace.Exit
      {
        slot = 2;
        cpu = 0;
        enclave = 0;
        tsc = 16;
        reason = Trace.X_abort { what = "triple fault" };
      };
    Trace.Fault { slot = 0; fault = Trace.F_wild 0x7fff_ffff };
    Trace.Fault { slot = 0; fault = Trace.F_phantom 42 };
    Trace.Fault { slot = 1; fault = Trace.F_ipi { dest = 5; vector = 0xd1 } };
    Trace.Fault { slot = 1; fault = Trace.F_msr };
    Trace.Fault { slot = 1; fault = Trace.F_port };
    Trace.Fault { slot = 2; fault = Trace.F_double };
    Trace.Fault { slot = 2; fault = Trace.F_wedge { cycles = 1_000_000 } };
    Trace.Inject_exit
      {
        slot = 1;
        reason = Trace.X_ept { gpa = 0; access = 0; not_mapped = false };
      };
    Trace.Corrupt { slot = 0; cls = Trace.Cross_owner };
    Trace.Corrupt { slot = 1; cls = Trace.Free_map };
    Trace.Corrupt { slot = 2; cls = Trace.Stale_grant };
    Trace.Corrupt { slot = 3; cls = Trace.Freed_access };
    Trace.Xemem_op { slot = 0; attach = true };
    Trace.Xemem_op { slot = 1; attach = false };
    Trace.Spawn { slot = 2; zone = 0 };
    Trace.Spawn { slot = 3; zone = 1 };
  ]

let full_trace =
  Trace.make ~schedule_json:{|{"seed":7,"entries":[]}|} ~dropped:3
    ~scenario:(Trace.Trial_batch { config = "mem+ipi"; seed = 99; trials = 4 })
    all_events

let test_codec_round_trip () =
  let check trace =
    match Trace.decode (Trace.encode trace) with
    | Ok t ->
        Alcotest.(check bool) "decode inverts encode" true (Trace.equal t trace)
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  check full_trace;
  check
    (Trace.make
       ~scenario:(Trace.Soak_shard { seed = 5; lo = 0; hi = 40; sanitize = true })
       []);
  check (Trace.make ~scenario:(Trace.Trial_batch { config = "full"; seed = 0; trials = 0 }) [])

let test_codec_rejects_malformed () =
  let bytes = Trace.encode full_trace in
  let reject what s =
    match Trace.decode s with
    | Ok _ -> Alcotest.failf "decode accepted %s" what
    | Error _ -> ()
  in
  reject "empty input" "";
  reject "bad magic" ("XVRT" ^ String.sub bytes 4 (String.length bytes - 4));
  reject "truncated" (String.sub bytes 0 (String.length bytes - 3));
  reject "trailing garbage" (bytes ^ "\x00");
  (* Flip the version varint (byte 4) to an unknown version. *)
  let b = Bytes.of_string bytes in
  Bytes.set b 4 '\x7f';
  reject "unknown version" (Bytes.to_string b)

let test_codec_fuzz_total () =
  (* decode must be total on arbitrary bytes: Error, never an
     exception. *)
  let rng = Covirt_sim.Rng.create ~seed:2026 in
  for _ = 1 to 500 do
    let len = Covirt_sim.Rng.int rng ~bound:64 in
    let s =
      String.init len (fun _ -> Char.chr (Covirt_sim.Rng.int rng ~bound:256))
    in
    match Trace.decode ("CVRT" ^ s) with Ok _ | Error _ -> ()
  done

let event_gen =
  let open QCheck.Gen in
  let exit_payload =
    oneof
      [
        map3
          (fun gpa access not_mapped -> Trace.X_ept { gpa; access; not_mapped })
          (int_bound 0xffff_ffff) (int_bound 2) bool;
        map3
          (fun dest vector kind -> Trace.X_icr { dest; vector; kind })
          (int_bound 7) (int_bound 255) (int_bound 3);
        map3
          (fun msr write value -> Trace.X_msr { msr; write; value })
          (int_bound 0xffff) bool (map Int64.of_int int);
        return Trace.X_cpuid;
        return Trace.X_hlt;
        map (fun vector -> Trace.X_intr { vector }) (int_bound 255);
        map (fun what -> Trace.X_abort { what }) (string_size (int_bound 12));
      ]
  in
  let fault_payload =
    oneof
      [
        map (fun a -> Trace.F_wild a) (int_bound 0xffff_ffff);
        map (fun a -> Trace.F_phantom a) (int_bound 0xffff_ffff);
        map2
          (fun dest vector -> Trace.F_ipi { dest; vector })
          (int_bound 7) (int_bound 255);
        return Trace.F_msr;
        return Trace.F_double;
        map (fun cycles -> Trace.F_wedge { cycles }) (int_bound 10_000_000);
      ]
  in
  let slot = int_bound 7 in
  oneof
    [
      (fun st ->
        let s = slot st in
        Trace.Exit
          {
            slot = s;
            cpu = int_bound 5 st;
            enclave = int_bound 3 st;
            tsc = int_bound 1_000_000 st;
            reason = exit_payload st;
          });
      map2 (fun slot fault -> Trace.Fault { slot; fault }) slot fault_payload;
      map2 (fun slot reason -> Trace.Inject_exit { slot; reason }) slot
        exit_payload;
      map2
        (fun slot cls -> Trace.Corrupt { slot; cls })
        slot
        (oneofl Trace.corruptions);
      map2 (fun slot attach -> Trace.Xemem_op { slot; attach }) slot bool;
      map2 (fun slot zone -> Trace.Spawn { slot; zone }) slot (int_bound 1);
    ]

let qcheck_codec =
  QCheck.Test.make ~count:200 ~name:"encode/decode round-trips any event list"
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) event_gen))
    (fun events ->
      let t =
        Trace.make
          ~scenario:(Trace.Trial_batch { config = "full"; seed = 1; trials = 8 })
          events
      in
      match Trace.decode (Trace.encode t) with
      | Ok t' -> Trace.equal t t'
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

(* --- record -> replay bit-identity ----------------------------------- *)

let with_sanitizer_restored f =
  let had = Covirt_hw.Sanitize.requested () in
  Fun.protect
    ~finally:(fun () -> if not had then Covirt_hw.Sanitize.release ())
    f

let test_record_replay_round_trip () =
  with_sanitizer_restored @@ fun () ->
  let r = Scenario.record ~config:"full" ~seed:7 ~trials:2 () in
  Alcotest.(check int) "complete trace" 0 r.Scenario.trace.Trace.dropped;
  let v = Replayer.verify r.Scenario.trace in
  Alcotest.(check bool) "replay is a fixed point" true v.Replayer.replay_identical;
  Alcotest.(check bool)
    "re-capture equals the recording" true v.Replayer.matches_original

let qcheck_record_replay =
  QCheck.Test.make ~count:4
    ~name:"record -> replay -> re-record is byte-identical (any seed)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      with_sanitizer_restored @@ fun () ->
      let config =
        List.nth Fuzzer.fuzz_configs (seed mod List.length Fuzzer.fuzz_configs)
      in
      let r = Scenario.record ~config ~seed ~trials:2 () in
      let v = Replayer.verify r.Scenario.trace in
      v.Replayer.replay_identical && v.Replayer.matches_original)

let test_record_sharded_across_domains () =
  (* A fleet-sharded recording session: each shard records its own
     trial batch; the digests must not depend on the domain count. *)
  with_sanitizer_restored @@ fun () ->
  let digests domains =
    Covirt_fleet.Fleet.map ~domains ~seed:2026 ~shards:4
      (fun ~shard_seed ~index ->
        let config = List.nth Fuzzer.fuzz_configs (index mod 5) in
        let r = Scenario.record ~config ~seed:shard_seed ~trials:2 () in
        Trace.digest r.Scenario.trace)
  in
  let d1 = digests 1 in
  Alcotest.(check (array string)) "domains 2 = domains 1" d1 (digests 2);
  Alcotest.(check (array string)) "domains 7 = domains 1" d1 (digests 7)

let test_recording_is_zero_cost () =
  (* The golden guarantee: the full golden scenario set produces
     byte-identical output to the committed snapshot (same gate as
     test_golden.ml) with the recorder armed, and with every observer
     at once — recorder, coverage, metrics and span export. *)
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let expected = read_file "golden/translation.expected" in
  let capture_with ~arm ~disarm =
    arm ();
    Fun.protect ~finally:disarm Covirt_harness.Golden.capture
  in
  Alcotest.(check bool)
    "golden capture byte-identical with recorder armed" true
    (String.equal expected
       (capture_with ~arm:Recorder.arm ~disarm:Recorder.disarm));
  let all_on () =
    Recorder.arm ();
    Coverage.arm ();
    Covirt_obs.enable ();
    Covirt_obs.Exporter.enable ()
  and all_off () =
    Recorder.disarm ();
    Coverage.disarm ();
    Covirt_obs.disable ();
    Covirt_obs.reset ()
  in
  Alcotest.(check bool)
    "golden capture byte-identical with recorder, coverage, metrics and \
     export armed"
    true
    (String.equal expected (capture_with ~arm:all_on ~disarm:all_off))

(* --- oracles --------------------------------------------------------- *)

let insert_corrupt ~slot cls events =
  let ev = Trace.Corrupt { slot; cls } in
  let rec insert = function
    | [] -> [ ev ]
    | e :: rest when Trace.is_input e && Trace.slot_of e = slot ->
        ev :: e :: rest
    | e :: rest -> e :: insert rest
  in
  insert events

let replay_with_corrupt ~config ~cls =
  with_sanitizer_restored @@ fun () ->
  let r = Scenario.record ~config ~seed:7 ~trials:2 () in
  let mutant =
    Trace.make ~scenario:r.Scenario.trace.Trace.scenario
      (insert_corrupt ~slot:1 cls r.Scenario.trace.Trace.events)
  in
  Scenario.replay mutant

let test_all_corruption_classes_detected () =
  List.iter
    (fun (config, cls) ->
      let rep = replay_with_corrupt ~config ~cls in
      Alcotest.(check bool)
        (Trace.corruption_name cls ^ " planted")
        true
        (List.mem cls rep.Scenario.planted);
      Alcotest.(check bool)
        (Trace.corruption_name cls ^ " detected under " ^ config)
        true
        (List.mem cls rep.Scenario.detected))
    [
      ("mem", Trace.Cross_owner);
      ("mem", Trace.Free_map);
      ("full", Trace.Stale_grant);
      ("none", Trace.Freed_access);
    ]

(* --- minimizer and the checked-in corpus ----------------------------- *)

let crashing_trace () =
  (* A known crash: a mutated IPI fault towards a core the 2x3 machine
     does not have escapes the injector as Invalid_argument.  The
     "none" config leaves ICR writes untrapped, so the bad destination
     reaches the machine instead of the whitelist; the fault is
     inserted ahead of the slot's recorded fault so a node panic
     cannot shadow it. *)
  with_sanitizer_restored @@ fun () ->
  let r = Scenario.record ~config:"none" ~seed:7 ~trials:2 () in
  let ev = Trace.Fault { slot = 1; fault = Trace.F_ipi { dest = 7; vector = 1 } } in
  let rec insert = function
    | [] -> [ ev ]
    | e :: rest when Trace.is_input e && Trace.slot_of e = 1 -> ev :: e :: rest
    | e :: rest -> e :: insert rest
  in
  Trace.make ~scenario:r.Scenario.trace.Trace.scenario
    (insert r.Scenario.trace.Trace.events)

let test_minimizer_shrinks_to_fixpoint () =
  with_sanitizer_restored @@ fun () ->
  let trace = crashing_trace () in
  let rep = Scenario.replay trace in
  Alcotest.(check bool) "mutant crashes" true (rep.Scenario.crashes <> []);
  let minimized, stats = Minimizer.minimize trace in
  Alcotest.(check bool)
    "minimization reduced the trace" true
    (stats.Minimizer.minimized_events <= stats.Minimizer.original_events);
  Alcotest.(check bool)
    "minimized trace still crashes" true
    ((Scenario.replay minimized).Scenario.crashes <> []);
  Alcotest.(check int)
    "single input suffices" 1
    (List.length (Trace.inputs minimized));
  let again, stats2 = Minimizer.minimize minimized in
  Alcotest.(check bool)
    "minimize is a fixpoint" true (Trace.equal minimized again);
  Alcotest.(check int)
    "fixpoint spends no reducing probes" stats2.Minimizer.minimized_events
    stats2.Minimizer.original_events

let corpus_dir = "traces"

let test_checked_in_corpus () =
  with_sanitizer_restored @@ fun () ->
  let traces =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort compare
  in
  Alcotest.(check bool)
    "at least 3 minimized reproducers checked in" true
    (List.length traces >= 3);
  List.iter
    (fun f ->
      let path = Filename.concat corpus_dir f in
      match Trace.of_file ~path with
      | Error e -> Alcotest.failf "%s does not decode: %s" f e
      | Ok t ->
          let rep = Scenario.replay t in
          Alcotest.(check bool) (f ^ " reproduces its crash") true
            (rep.Scenario.crashes <> []);
          let minimized, _ = Minimizer.minimize t in
          Alcotest.(check bool)
            (f ^ " is already minimal") true (Trace.equal t minimized))
    traces

(* --- fuzzer fleet determinism ---------------------------------------- *)

let test_fuzz_identical_across_domains () =
  with_sanitizer_restored @@ fun () ->
  let run domains = Fuzzer.run ~trials:6 ~seed:11 ~domains () in
  let r1 = run 1 in
  let render r = Covirt_sim.Table.render (Fuzzer.table r) in
  Alcotest.(check bool) "domains 2 = domains 1" true (run 2 = r1);
  Alcotest.(check bool) "domains 7 = domains 1" true (run 7 = r1);
  Alcotest.(check string)
    "rendered table identical" (render r1)
    (render (run 7));
  Alcotest.(check int) "no replay divergences" 0 r1.Fuzzer.divergences

let test_guided_fuzz_identical_across_domains () =
  (* The guided variant: the coverage map, promoted entries and every
     other result field must not depend on the domain count either.
     Structural equality covers the Coverage.t inside (immutable
     string snapshots). *)
  with_sanitizer_restored @@ fun () ->
  let run domains = Fuzzer.run ~trials:6 ~seed:11 ~domains ~coverage:true () in
  let r1 = run 1 in
  Alcotest.(check bool) "domains 2 = domains 1" true (run 2 = r1);
  Alcotest.(check bool) "domains 7 = domains 1" true (run 7 = r1);
  Alcotest.(check bool)
    "guided run filled the coverage field" true
    (r1.Fuzzer.coverage <> None);
  Alcotest.(check string)
    "rendered table identical"
    (Covirt_sim.Table.render (Fuzzer.table r1))
    (Covirt_sim.Table.render (Fuzzer.table (run 7)))

(* --- supervisor capture hook ----------------------------------------- *)

let test_soak_shard_replay_identical () =
  (* The soak half of the replay contract: re-running a shard under
     the recorder twice captures identical bytes. *)
  let capture () =
    Recorder.arm ();
    Fun.protect ~finally:Recorder.disarm (fun () ->
        let r =
          Covirt_resilience.Soak.replay_shard ~on_trial:Recorder.set_slot
            ~shard_seed:5 ~lo:0 ~hi:12 ~sanitize:false ()
        in
        let events, dropped = Recorder.capture () in
        ( r.Covirt_resilience.Soak.faults_injected,
          Trace.make ~dropped
            ~scenario:
              (Trace.Soak_shard { seed = 5; lo = 0; hi = 12; sanitize = false })
            events ))
  in
  let f1, t1 = capture () in
  let f2, t2 = capture () in
  Alcotest.(check int) "same faults" f1 f2;
  Alcotest.(check bool) "byte-identical soak captures" true (Trace.equal t1 t2);
  Alcotest.(check bool) "soak produced events" true (t1.Trace.events <> [])

let test_supervisor_capture_hook () =
  (* A quarantine fires the hook mid-protocol and collects its path. *)
  let open Covirt_resilience in
  let gib = Covirt_sim.Units.gib in
  let machine =
    Covirt_hw.Machine.create ~seed:7 ~zones:2 ~cores_per_zone:2
      ~mem_per_zone:(2 * gib)
      ~host_reserved_per_zone:(128 * mib) ()
  in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let ctrl =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config:Covirt.Config.full
  in
  let policy =
    {
      Supervisor.max_restarts = 1;
      backoff_base = 100_000;
      backoff_factor = 2;
      backoff_cap = 1_000_000;
      stability_window = 100_000_000;
      watchdog_deadline = 2_000_000;
    }
  in
  let sup = Supervisor.create ~policy ~seed:7 ctrl in
  Supervisor.set_quarantine_hook sup (fun ~name ~why ->
      Some (Printf.sprintf "/capture/%s.trace (%s)" name why));
  (match
     Supervisor.manage sup ~name:"crashy" ~launch:(fun () ->
         Covirt_hobbes.Hobbes.launch_enclave hobbes ~name:"crashy" ~cores:[ 1 ]
           ~mem:[ (0, 256 * mib) ]
           ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* Exhaust the one-restart budget to trip the breaker. *)
  let crash () =
    Supervisor.run_protected sup ~name:"crashy" (fun ctx ->
        Covirt_kitten.Kitten.wrmsr_sensitive ctx)
  in
  (match crash () with
  | `Recovered -> ()
  | _ -> Alcotest.fail "first crash should recover");
  (match crash () with
  | `Quarantined _ -> ()
  | _ -> Alcotest.fail "second crash should trip the breaker");
  match Supervisor.captures sup with
  | [ (name, path) ] ->
      Alcotest.(check string) "captured enclave" "crashy" name;
      Alcotest.(check bool) "hook path collected" true (String.length path > 0)
  | l -> Alcotest.failf "expected one capture, got %d" (List.length l)

let () =
  Alcotest.run "replay"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trips every variant" `Quick
            test_codec_round_trip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_codec_rejects_malformed;
          Alcotest.test_case "total on arbitrary bytes" `Quick
            test_codec_fuzz_total;
          QCheck_alcotest.to_alcotest qcheck_codec;
        ] );
      ( "replay",
        [
          Alcotest.test_case "record -> replay round-trip bit-identical" `Quick
            test_record_replay_round_trip;
          QCheck_alcotest.to_alcotest qcheck_record_replay;
          Alcotest.test_case "sharded recording identical at domains 1/2/7"
            `Slow test_record_sharded_across_domains;
          Alcotest.test_case "recording armed leaves golden byte-identical"
            `Slow test_recording_is_zero_cost;
          Alcotest.test_case "soak-shard replay captures identical bytes" `Slow
            test_soak_shard_replay_identical;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "all four corruption classes detected" `Slow
            test_all_corruption_classes_detected;
        ] );
      ( "minimizer",
        [
          Alcotest.test_case "shrinks a crash to fixpoint" `Slow
            test_minimizer_shrinks_to_fixpoint;
          Alcotest.test_case "checked-in corpus reproduces, minimal" `Slow
            test_checked_in_corpus;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "byte-identical at domains 1/2/7" `Slow
            test_fuzz_identical_across_domains;
          Alcotest.test_case "guided fuzz byte-identical at domains 1/2/7"
            `Slow test_guided_fuzz_identical_across_domains;
        ] );
      ( "capture",
        [
          Alcotest.test_case "supervisor quarantine hook collects paths" `Quick
            test_supervisor_capture_hook;
        ] );
    ]
