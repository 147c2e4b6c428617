(* Supervision subsystem tests: fault-injection engine determinism and
   scheduling, restart backoff and recovery-timeline determinism, the
   circuit breaker and its quarantine ledger, watchdog detection of
   wedged enclaves, blast-radius (healthy siblings untouched), the
   fault-report subscription feed, and the end-to-end supervised
   soak. *)

open Covirt_hw
open Covirt_pisces
open Covirt_kitten
open Covirt_resilience
open Covirt_test_util

let mib = Covirt_sim.Units.mib
let gib = Covirt_sim.Units.gib

(* A supervised two-enclave stack on the small test machine: "prime"
   takes the faults, "buddy" is the bystander. *)
type sstack = {
  machine : Machine.t;
  hobbes : Covirt_hobbes.Hobbes.t;
  ctrl : Covirt.Controller.t;
  sup : Supervisor.t;
}

let test_policy =
  {
    Supervisor.max_restarts = 2;
    backoff_base = 100_000;
    backoff_factor = 2;
    backoff_cap = 1_000_000;
    stability_window = 100_000_000;
    watchdog_deadline = 2_000_000;
  }

let supervised_stack ?(policy = test_policy) ?(seed = 7) ?(buddy = false) () =
  let machine =
    Machine.create ~seed ~zones:2 ~cores_per_zone:2 ~mem_per_zone:(2 * gib)
      ~host_reserved_per_zone:(128 * mib) ()
  in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let ctrl =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes)
      ~config:Covirt.Config.full
  in
  let sup = Supervisor.create ~policy ~seed ctrl in
  let manage name core zone =
    match
      Supervisor.manage sup ~name ~launch:(fun () ->
          Covirt_hobbes.Hobbes.launch_enclave hobbes ~name ~cores:[ core ]
            ~mem:[ (zone, 256 * mib) ]
            ())
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "supervised_stack: launch %s: %s" name e
  in
  manage "prime" 1 0;
  if buddy then manage "buddy" 3 1;
  { machine; hobbes; ctrl; sup }

let host_cpu s = Pisces.host_cpu (Covirt_hobbes.Hobbes.pisces s.hobbes)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let show_timeline sup =
  List.map
    (fun e -> Format.asprintf "%a" Supervisor.pp_event e)
    (Supervisor.timeline sup)

(* ------------------------------------------------------------------ *)
(* Fault injector.                                                     *)

let test_injector_determinism () =
  let draw_seq seed =
    let inj = Fault_injector.create ~seed () in
    List.init 40 (fun _ ->
        Format.asprintf "%a"
          Fault_injector.pp_fault
          (Fault_injector.draw inj ~machine_mem:(4 * gib) ~victim_bsp:3))
  in
  Alcotest.(check (list string))
    "equal seeds, equal fault streams" (draw_seq 11) (draw_seq 11);
  Alcotest.(check bool)
    "different seeds diverge" true
    (draw_seq 11 <> draw_seq 12)

let test_injector_schedule () =
  let wedge = Fault_injector.Wedge { cycles = 1000 } in
  let inj =
    Fault_injector.create ~seed:1
      ~rules:
        [
          { Fault_injector.target = "a"; trigger = At_trial 3; fault = wedge };
          {
            Fault_injector.target = "a";
            trigger = Every_n_trials 2;
            fault = Fault_injector.Msr_write;
          };
          {
            Fault_injector.target = "b";
            trigger = At_cycle 1_000;
            fault = Fault_injector.Port_reset;
          };
        ]
      ()
  in
  let due target trial now =
    match Fault_injector.due inj ~target ~trial ~now with
    | Fault_injector.Due faults -> faults
    | Fault_injector.End_of_schedule -> []
  in
  Alcotest.(check int) "trial 1: nothing for a" 0 (List.length (due "a" 1 0));
  Alcotest.(check int) "trial 2: every-2 fires" 1 (List.length (due "a" 2 0));
  (match due "a" 3 0 with
  | [ Fault_injector.Wedge _ ] -> ()
  | l -> Alcotest.failf "trial 3: expected the wedge, got %d faults" (List.length l));
  Alcotest.(check int) "one-shot consumed" 0
    (List.length
       (List.filter Fault_injector.is_wedge (due "a" 3 0)));
  Alcotest.(check int) "trial 4: every-2 again" 1 (List.length (due "a" 4 0));
  Alcotest.(check int) "cycle trigger not yet" 0 (List.length (due "b" 1 999));
  (match due "b" 2 5_000 with
  | [ Fault_injector.Port_reset ] -> ()
  | _ -> Alcotest.fail "cycle trigger should fire once past the deadline");
  Alcotest.(check int) "cycle trigger consumed" 0
    (List.length (due "b" 3 9_000));
  Alcotest.(check int) "target filter" 0 (List.length (due "c" 2 0))

(* ------------------------------------------------------------------ *)
(* Supervisor.                                                         *)

let crash s name =
  Supervisor.run_protected s.sup ~name (fun ctx -> Kitten.wrmsr_sensitive ctx)

let test_recovery_and_timeline_determinism () =
  let run_scenario () =
    let s = supervised_stack ~seed:7 () in
    (match crash s "prime" with
    | `Recovered -> ()
    | _ -> Alcotest.fail "first crash should recover");
    Cpu.charge (host_cpu s) 500_000;
    (match
       Supervisor.run_protected s.sup ~name:"prime" (fun ctx ->
           Kitten.trigger_double_fault ctx)
     with
    | `Recovered -> ()
    | _ -> Alcotest.fail "second crash should recover");
    Alcotest.(check int) "two restarts consumed" 2
      (Supervisor.attempts s.sup ~name:"prime");
    Alcotest.(check int) "incarnation 2" 2
      (Supervisor.incarnation s.sup ~name:"prime");
    (match Supervisor.run_protected s.sup ~name:"prime" (fun _ -> ()) with
    | `Ok -> ()
    | _ -> Alcotest.fail "recovered enclave should run");
    show_timeline s.sup
  in
  let a = run_scenario () in
  let b = run_scenario () in
  Alcotest.(check (list string))
    "same seed, same recovery timeline (backoff included)" a b;
  (* The timeline tells the whole story, in order. *)
  let kinds =
    List.filter
      (fun line ->
        not
          (String.length line = 0))
      a
  in
  Alcotest.(check bool) "timeline non-trivial" true (List.length kinds >= 8)

let test_backoff_grows_and_caps () =
  let policy = { test_policy with Supervisor.max_restarts = 6 } in
  let s = supervised_stack ~policy () in
  for i = 1 to 6 do
    match crash s "prime" with
    | `Recovered -> ()
    | _ -> Alcotest.failf "crash %d should recover" i
  done;
  let delays =
    List.filter_map
      (fun (e : Supervisor.event) ->
        match e.Supervisor.kind with
        | Supervisor.Backing_off { cycles; attempt } -> Some (attempt, cycles)
        | _ -> None)
      (Supervisor.timeline s.sup)
  in
  Alcotest.(check int) "six backoffs" 6 (List.length delays);
  List.iter
    (fun (attempt, cycles) ->
      let base = test_policy.Supervisor.backoff_base in
      let jitter = base / 8 in
      let exact =
        min policy.Supervisor.backoff_cap
          (base * int_of_float (2. ** float_of_int (attempt - 1)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d delay in [%d, %d)" attempt exact
           (exact + jitter))
        true
        (cycles >= exact && cycles < exact + jitter))
    delays

let test_circuit_breaker () =
  let s = supervised_stack () in
  (match crash s "prime" with `Recovered -> () | _ -> Alcotest.fail "crash 1");
  (match crash s "prime" with `Recovered -> () | _ -> Alcotest.fail "crash 2");
  (match crash s "prime" with
  | `Quarantined why ->
      Alcotest.(check bool) "reason names the budget" true
        (is_infix ~affix:"restart budget exhausted (2/2" why)
  | _ -> Alcotest.fail "third crash should trip the breaker");
  (match Supervisor.status s.sup ~name:"prime" with
  | Supervisor.Quarantined _ -> ()
  | Supervisor.Healthy -> Alcotest.fail "status should be quarantined");
  (match Supervisor.quarantine_ledger s.sup with
  | [ (name, why) ] ->
      Alcotest.(check string) "ledger entry" "prime" name;
      Alcotest.(check bool) "ledger explains the last fault" true
        (is_infix ~affix:"msr-violation" why)
  | l -> Alcotest.failf "ledger should have one entry, has %d" (List.length l));
  (* Quarantine is permanent: nothing runs any more. *)
  let ran = ref false in
  (match Supervisor.run_protected s.sup ~name:"prime" (fun _ -> ran := true) with
  | `Quarantined _ -> ()
  | _ -> Alcotest.fail "quarantined enclave must not relaunch");
  Alcotest.(check bool) "code never ran" false !ran;
  Alcotest.(check bool) "enclave gone" true
    (Supervisor.enclave s.sup ~name:"prime" = None)

let test_stability_window_resets_budget () =
  let policy = { test_policy with Supervisor.stability_window = 1_000_000 } in
  let s = supervised_stack ~policy () in
  (match crash s "prime" with `Recovered -> () | _ -> Alcotest.fail "crash 1");
  Alcotest.(check int) "one restart consumed" 1
    (Supervisor.attempts s.sup ~name:"prime");
  (* A long healthy stretch recharges the budget... *)
  Cpu.charge (host_cpu s) 2_000_000;
  (match Supervisor.run_protected s.sup ~name:"prime" (fun _ -> ()) with
  | `Ok -> ()
  | _ -> Alcotest.fail "healthy run");
  Alcotest.(check int) "budget reset after stability window" 0
    (Supervisor.attempts s.sup ~name:"prime");
  (* ...so the breaker needs max_restarts fresh failures again. *)
  (match crash s "prime" with `Recovered -> () | _ -> Alcotest.fail "crash 2");
  Alcotest.(check int) "counting from zero again" 1
    (Supervisor.attempts s.sup ~name:"prime")

(* ------------------------------------------------------------------ *)
(* Watchdog.                                                           *)

(* Without [~policy] the supervisor runs the fixed default: 5 restarts,
   backoff 100k cycles doubling up to 25M, a 50M-cycle stability window
   and a 5M-cycle watchdog deadline. *)
let test_default_policy () =
  let machine =
    Machine.create ~seed:3 ~zones:1 ~cores_per_zone:2 ~mem_per_zone:(1 * gib)
      ~host_reserved_per_zone:(128 * mib) ()
  in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let ctrl =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config:Covirt.Config.mem
  in
  let p = Supervisor.policy (Supervisor.create ~seed:3 ctrl) in
  Alcotest.(check (list int))
    "max_restarts, backoff base/factor/cap, stability window, watchdog \
     deadline"
    [ 5; 100_000; 2; 25_000_000; 50_000_000; 5_000_000 ]
    [ p.Supervisor.max_restarts; p.backoff_base; p.backoff_factor;
      p.backoff_cap; p.stability_window; p.watchdog_deadline ]

let test_watchdog_catches_wedge () =
  let s = supervised_stack () in
  let dog = Watchdog.create s.sup in
  let old_id =
    match Supervisor.enclave s.sup ~name:"prime" with
    | Some e -> e.Enclave.id
    | None -> Alcotest.fail "prime should be up"
  in
  (* A healthy enclave is never flagged, no matter how often polled. *)
  Alcotest.(check (list string)) "first poll arms the snapshot" []
    (Watchdog.poll dog);
  (match
     Supervisor.run_protected s.sup ~name:"prime" (fun ctx ->
         Kitten.heartbeat ctx)
   with
  | `Ok -> ()
  | _ -> Alcotest.fail "heartbeat run");
  Cpu.charge (host_cpu s) 3_000_000;
  Alcotest.(check (list string)) "progress was seen, deadline re-armed" []
    (Watchdog.poll dog);
  (* Now wedge: containment sees nothing... *)
  (match
     Supervisor.run_protected s.sup ~name:"prime" (fun ctx ->
         Kitten.spin_wedged ctx ~cycles:10_000_000)
   with
  | `Ok -> ()
  | _ -> Alcotest.fail "a wedge must not trip containment");
  Cpu.charge (host_cpu s) 1_000_000;
  Alcotest.(check (list string)) "within deadline: benefit of the doubt" []
    (Watchdog.poll dog);
  Cpu.charge (host_cpu s) 2_500_000;
  (* ...but the watchdog does. *)
  Alcotest.(check (list string)) "escalated" [ "prime" ] (Watchdog.poll dog);
  Alcotest.(check int) "relaunched as a new incarnation" 1
    (Supervisor.incarnation s.sup ~name:"prime");
  (match Supervisor.status s.sup ~name:"prime" with
  | Supervisor.Healthy -> ()
  | Supervisor.Quarantined why -> Alcotest.failf "quarantined: %s" why);
  (* The wedge left a watchdog-timeout report against the dead
     incarnation — the ledger trail for post-mortems. *)
  let reports = Covirt.reports s.ctrl ~enclave_id:old_id in
  Alcotest.(check bool) "watchdog-timeout report recorded" true
    (List.exists
       (fun (r : Covirt.Fault_report.t) ->
         r.Covirt.Fault_report.kind = Covirt.Fault_report.Watchdog_timeout
         && r.Covirt.Fault_report.fatal)
       reports);
  (* And the fresh incarnation runs. *)
  match Supervisor.run_protected s.sup ~name:"prime" (fun _ -> ()) with
  | `Ok -> ()
  | _ -> Alcotest.fail "recovered wedge should run"

(* ------------------------------------------------------------------ *)
(* Blast radius.                                                       *)

let buddy_solve s =
  let res = ref nan in
  (match
     Supervisor.run_protected s.sup ~name:"buddy" (fun ctx ->
         match
           Covirt_workloads.Hpcg.run [ ctx ] ~nominal_dim:48 ~real_dim:10
             ~iterations:15 ()
         with
         | Ok r -> res := r.Covirt_workloads.Hpcg.final_residual
         | Error e -> Alcotest.failf "buddy hpcg: %s" e)
   with
  | `Ok -> ()
  | _ -> Alcotest.fail "buddy must stay healthy");
  !res

let test_sibling_untouched () =
  (* Reference: the same solve on a machine that never saw a fault. *)
  let clean = supervised_stack ~buddy:true () in
  let reference = buddy_solve clean in
  (* Stormy run: prime crashes and wedges repeatedly around buddy. *)
  let s =
    supervised_stack
      ~policy:{ test_policy with Supervisor.max_restarts = 10 }
      ~buddy:true ()
  in
  let dog = Watchdog.create s.sup in
  for _ = 1 to 3 do
    match crash s "prime" with
    | `Recovered -> ()
    | _ -> Alcotest.fail "prime should recover"
  done;
  (match
     Supervisor.run_protected s.sup ~name:"prime" (fun ctx ->
         Kitten.spin_wedged ctx ~cycles:10_000_000)
   with
  | `Ok -> ()
  | _ -> Alcotest.fail "wedge");
  (* Keep buddy visibly alive while the wedge times out. *)
  for _ = 1 to 4 do
    Cpu.charge (host_cpu s) 1_000_000;
    (match
       Supervisor.run_protected s.sup ~name:"buddy" (fun ctx ->
           Kitten.heartbeat ctx)
     with
    | `Ok -> ()
    | _ -> Alcotest.fail "buddy heartbeat");
    ignore (Watchdog.poll dog)
  done;
  Alcotest.(check int) "prime went through recoveries" 4
    (Supervisor.incarnation s.sup ~name:"prime");
  (* Buddy: never restarted, never corrupted, identical results. *)
  Alcotest.(check int) "buddy never restarted" 0
    (Supervisor.incarnation s.sup ~name:"buddy");
  (match Supervisor.kitten s.sup ~name:"buddy" with
  | Some k -> Alcotest.(check bool) "buddy uncorrupted" true (Kitten.health k = `Ok)
  | None -> Alcotest.fail "buddy should be up");
  let stormy = buddy_solve s in
  Alcotest.(check (float 0.0)) "bit-identical solve next to the storm"
    reference stormy

(* ------------------------------------------------------------------ *)
(* Controller satellites: the subscription feed, archived dropped-IPI
   counts, and surgical detach.                                        *)

let test_subscription_feed () =
  let seen = ref [] in
  let s = supervised_stack () in
  Covirt.subscribe s.ctrl (fun r -> seen := r :: !seen);
  (match crash s "prime" with `Recovered -> () | _ -> Alcotest.fail "crash");
  match !seen with
  | [ r ] ->
      Alcotest.(check bool) "fatal msr report" true
        (r.Covirt.Fault_report.fatal
        && r.Covirt.Fault_report.kind = Covirt.Fault_report.Msr_violation)
  | l -> Alcotest.failf "expected 1 report on the feed, got %d" (List.length l)

let test_dropped_ipis_survive_destroy () =
  let stack = Helpers.boot_stack () in
  let victim, _ = Helpers.second_enclave stack () in
  let ctx = Helpers.ctx stack 1 in
  (* Cross-enclave IPI on an ungranted vector: dropped, not fatal. *)
  Covirt_kitten.Kitten.send_ipi ctx ~dest:(Enclave.bsp victim) ~vector:0x77;
  let id = stack.Helpers.enclave.Enclave.id in
  Alcotest.(check int) "drop counted while live" 1
    (Covirt.dropped_ipis stack.Helpers.controller ~enclave_id:id);
  Pisces.destroy (Helpers.pisces stack) stack.Helpers.enclave;
  Alcotest.(check int) "drop count survives destruction" 1
    (Covirt.dropped_ipis stack.Helpers.controller ~enclave_id:id)

(* Post-mortem answers for two dead enclaves: one that dropped an IPI
   and crashed (its archive holds both), one that did neither (nothing
   archived; the lookups answer from their defaults). *)
let test_archive_of_dead_enclaves () =
  let stack = Helpers.boot_stack () in
  let quiet, _ = Helpers.second_enclave stack () in
  let ctx = Helpers.ctx stack 1 in
  let noisy = stack.Helpers.enclave.Enclave.id in
  Covirt_kitten.Kitten.send_ipi ctx ~dest:(Enclave.bsp quiet) ~vector:0x77;
  Alcotest.(check bool) "crashed" true
    (Result.is_error
       (Pisces.run_guarded (Helpers.pisces stack) (fun () ->
            Covirt_kitten.Kitten.store_addr ctx 0x3000)));
  Pisces.destroy (Helpers.pisces stack) quiet;
  let c = stack.Helpers.controller in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "enclave %d has no live instance" id)
        true
        (Covirt.Controller.instance_for c ~enclave_id:id = None))
    [ noisy; quiet.Enclave.id ];
  Alcotest.(check (list string)) "crashed enclave: reports archived"
    [ "errant-ipi"; "memory-violation" ]
    (List.map
       (fun r -> Covirt.Fault_report.kind_name r.Covirt.Fault_report.kind)
       (Covirt.reports c ~enclave_id:noisy));
  Alcotest.(check int) "crashed enclave: drop archived" 1
    (Covirt.dropped_ipis c ~enclave_id:noisy);
  Alcotest.(check int) "quiet enclave: no reports" 0
    (List.length (Covirt.reports c ~enclave_id:quiet.Enclave.id));
  Alcotest.(check int) "quiet enclave: no drops" 0
    (Covirt.dropped_ipis c ~enclave_id:quiet.Enclave.id)

let test_detach_spares_foreign_hooks () =
  let machine = Helpers.small_machine () in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let hooks = Pisces.hooks (Covirt_hobbes.Hobbes.pisces hobbes) in
  let mine_fired = ref 0 in
  let mine (_ : Enclave.t) = incr mine_fired in
  hooks.Hooks.on_enclave_created <- hooks.Hooks.on_enclave_created @ [ mine ];
  let before = List.length hooks.Hooks.on_enclave_created in
  let ctrl =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes)
      ~config:Covirt.Config.full
  in
  Alcotest.(check bool) "controller added hooks" true
    (List.length hooks.Hooks.on_enclave_created > before);
  Covirt.disable ctrl;
  Alcotest.(check int) "only the controller's hooks were removed" before
    (List.length hooks.Hooks.on_enclave_created);
  Alcotest.(check bool) "the foreign hook is still the same closure" true
    (List.memq mine hooks.Hooks.on_enclave_created);
  (* And it still fires. *)
  (match
     Covirt_hobbes.Hobbes.launch_enclave hobbes ~name:"after" ~cores:[ 1 ]
       ~mem:[ (0, 128 * mib) ]
       ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-detach launch: %s" e);
  Alcotest.(check int) "foreign hook fired" 1 !mine_fired

(* ------------------------------------------------------------------ *)
(* The end-to-end soak.                                                *)

let test_supervised_soak () =
  let r = Soak.run () in
  Alcotest.(check bool) "at least 100 faults injected" true
    (r.Soak.faults_injected >= 100);
  Alcotest.(check bool) "recoveries actually happened" true
    (r.Soak.fatal_recoveries >= 50);
  Alcotest.(check int) "every wedge was detected" r.Soak.wedges_injected
    r.Soak.wedges_detected;
  Alcotest.(check bool) "wedges were scheduled" true
    (r.Soak.wedges_injected >= 6);
  Alcotest.(check bool) "restart budget respected throughout" true
    r.Soak.budget_respected;
  Alcotest.(check bool) "sibling unperturbed, residual identical" true
    r.Soak.sibling_unperturbed;
  List.iter
    (fun (name, why) ->
      Alcotest.(check bool)
        (name ^ " quarantine explained")
        true
        (String.length why > 0))
    r.Soak.quarantined;
  (* Both workers took faults. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " was restarted") true
        (List.assoc name r.Soak.incarnations > 0))
    [ "worker-a"; "worker-b" ];
  (* Same seed, same soak — timelines and all. *)
  let r2 = Soak.run () in
  Alcotest.(check (list string)) "soak is deterministic"
    (List.map (Format.asprintf "%a" Supervisor.pp_event) r.Soak.timeline)
    (List.map (Format.asprintf "%a" Supervisor.pp_event) r2.Soak.timeline);
  Alcotest.(check (float 0.0)) "soak residual deterministic"
    r.Soak.sibling_residual r2.Soak.sibling_residual

(* Dense-node blast radius: inject a wild write into the Zipf-hottest
   tenant mid-churn and compare against the identical clean run.  The
   injection is an *extra* action on its op slot (it consumes no rng
   draws), so every tenant outside the victim's warm set — the victim
   plus its export/attach ring neighbours — must see a byte-identical
   latency histogram: p99 delta exactly zero, not merely small. *)
let test_hot_tenant_fault_blast_radius () =
  let module L = Covirt_loadgen.Loadgen in
  let base = L.spec ~tenants:16 ~ops:300 ~shards:2 () in
  let clean = L.run ~domains:1 base in
  let faulted =
    L.run ~domains:1
      { base with L.fault = Some { L.tenant = 0; after_op = 100 } }
  in
  let t = L.totals faulted in
  Alcotest.(check int) "fault injected" 1 t.L.faults_injected;
  Alcotest.(check int) "victim recovered" 1 t.L.recoveries;
  Alcotest.(check bool) "faulted run audit clean" true (L.ok faulted);
  Array.iter
    (fun (s : L.shard_report) ->
      Alcotest.(check int) "no violations mid-churn fault" 0 s.L.violations)
    faulted.L.shards;
  (* Tenant 0 lives on shard 0 (8 tenants per shard); its ring
     neighbours there are tenant 1 (outgoing export) and tenant 7
     (incoming).  Everyone else is cold and must be untouched. *)
  let warm = [ 0; 1; 7 ] in
  let cold_hists r =
    List.filter (fun (g, _) -> not (List.mem g warm)) (L.per_tenant r)
  in
  let clean_cold = cold_hists clean and faulted_cold = cold_hists faulted in
  Alcotest.(check int) "same cold tenant population"
    (List.length clean_cold) (List.length faulted_cold);
  List.iter2
    (fun (g, (h1 : Covirt_obs.Metrics.Hist.t)) (g', h2) ->
      Alcotest.(check int) "tenant ids align" g g';
      let same =
        h1.Covirt_obs.Metrics.Hist.n = h2.Covirt_obs.Metrics.Hist.n
        && h1.Covirt_obs.Metrics.Hist.sum = h2.Covirt_obs.Metrics.Hist.sum
        && h1.Covirt_obs.Metrics.Hist.counts = h2.Covirt_obs.Metrics.Hist.counts
      in
      Alcotest.(check bool)
        (Printf.sprintf "cold tenant %d latency histogram untouched" g)
        true same;
      let p99 h = Covirt_obs.Metrics.Hist.quantile h ~p:99. in
      Alcotest.(check (float 0.))
        (Printf.sprintf "cold tenant %d p99 delta is zero" g)
        (p99 h1) (p99 h2))
    clean_cold faulted_cold

let () =
  Alcotest.run "resilience"
    [
      ( "injector",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_injector_determinism;
          Alcotest.test_case "schedule triggers" `Quick test_injector_schedule;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "recovery timeline determinism" `Quick
            test_recovery_and_timeline_determinism;
          Alcotest.test_case "backoff grows and caps" `Quick
            test_backoff_grows_and_caps;
          Alcotest.test_case "circuit breaker quarantines" `Quick
            test_circuit_breaker;
          Alcotest.test_case "stability window resets budget" `Quick
            test_stability_window_resets_budget;
          Alcotest.test_case "default policy" `Quick test_default_policy;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "catches a wedged enclave" `Quick
            test_watchdog_catches_wedge;
        ] );
      ( "blast radius",
        [
          Alcotest.test_case "healthy sibling untouched" `Quick
            test_sibling_untouched;
          Alcotest.test_case "hot-tenant fault mid-churn spares cold tenants"
            `Quick test_hot_tenant_fault_blast_radius;
        ] );
      ( "controller",
        [
          Alcotest.test_case "fault-report subscription feed" `Quick
            test_subscription_feed;
          Alcotest.test_case "dropped IPIs survive destroy" `Quick
            test_dropped_ipis_survive_destroy;
          Alcotest.test_case "archive of dead enclaves" `Quick
            test_archive_of_dead_enclaves;
          Alcotest.test_case "detach spares foreign hooks" `Quick
            test_detach_spares_foreign_hooks;
        ] );
      ( "soak",
        [ Alcotest.test_case "supervised soak" `Quick test_supervised_soak ] );
    ]
