(* The scenario runner: executes a Trial_batch — the campaign-shaped
   attacker/victim stack — in record or replay mode, with the oracle
   battery attached.

   Determinism argument for the replay contract (record -> replay ->
   re-capture is bit-identical):

   - every seed replay needs is in the trace: the batch seed derives
     the per-trial machine seed ([split_seed trial_seed 1]) and the
     per-trial injector seed exactly as record mode derived them;
   - record mode consumes injector randomness only for the one drawn
     fault per trial; replay injects the {e recorded} fault instead of
     drawing, and nothing else reads that stream, so skipping the draw
     perturbs nothing;
   - the recorder re-records every input as it is applied (the fault
     point fires for replayed faults exactly as it did for drawn ones, and
     the replayer notes synthetic inputs before applying them), so a
     replay's capture carries the same input events in the same
     positions, and machine determinism regenerates the same exits.

   The oracles never perturb the run: the recorder keeps the probe
   bus's contract, the sanitizer its own, and the static verifier is
   an offline radix walk that charges no simulated cycles. *)

open Covirt_hw
open Covirt_pisces
open Covirt_kitten
open Covirt_analysis
module Fault_injector = Covirt_resilience.Fault_injector

let gib = Covirt_sim.Units.gib
let mib = Covirt_sim.Units.mib
let machine_mem = 8 * gib

type trial_outcome = Survived | Node_down | Collateral

let outcome_name = function
  | Survived -> "survived"
  | Node_down -> "node-down"
  | Collateral -> "collateral"

type trial_result = {
  slot : int;
  outcome : trial_outcome;
  crash : string option;
  sanitizer_delta : int;
  verifier_violations : int;
  planted : Trace.corruption list;
  detected : Trace.corruption list;
}

type report = {
  trace : Trace.t;
  results : trial_result list;
  crashes : (int * string) list;
  planted : Trace.corruption list;
  detected : Trace.corruption list;
  sanitizer_flags : int;
}

let config_of_name name =
  match
    List.assoc_opt name
      (Covirt.Config.presets @ [ ("full(+msr+io)", Covirt.Config.full) ])
  with
  | Some c -> Some c
  | None -> if name = "full" then Some Covirt.Config.full else None

(* Exceptions that are legitimate simulated outcomes, not harness
   crashes.  Everything else escaping a trial is the crash oracle
   firing. *)
let simulated_exn = function
  | Machine.Node_panic _ | Vmx.Vm_terminated _ -> true
  | _ -> false

let violation_matches cls (v : Violation.t) =
  match (cls, v.Violation.kind) with
  | ( Trace.Cross_owner,
      ( Violation.Cross_owner_mapping _ | Violation.Shadow_cross_owner _
      | Violation.Shadow_corrupt_mapping _ ) ) ->
      true
  | Trace.Free_map, (Violation.Unbacked_mapping | Violation.Shadow_corrupt_mapping _)
    ->
      true
  | Trace.Stale_grant, Violation.Stale_grant _ -> true
  | Trace.Freed_access, Violation.Shadow_freed_access -> true
  | _ -> false

(* --- one trial ------------------------------------------------------ *)

(* Inputs this trial must apply (replay) or produce (record). *)
type trial_mode =
  | Record_trial of Fault_injector.t option  (** batch schedule, if any *)
  | Replay_trial of Trace.event list  (** this slot's input events *)

let apply_corruption ~machine ~hobbes ~ctrl ~attacker ~victim ~attacker_kitten
    cls =
  let instance_of (e : Enclave.t) =
    Covirt.Controller.instance_for ctrl ~enclave_id:e.Enclave.id
  in
  let attacker_ept () =
    match instance_of attacker with
    | Some { Covirt.Controller.ept_mgr = Some mgr; _ } ->
        Some (Covirt.Ept_manager.ept mgr)
    | _ -> None
  in
  match cls with
  | Trace.Cross_owner -> (
      (* The attacker's EPT suddenly maps a window of the victim's
         memory. *)
      match (attacker_ept (), Region.Set.to_list victim.Enclave.memory) with
      | Some ept, r :: _ ->
          Ept.map_region ept (Region.make ~base:r.Region.base ~len:(4 * mib))
      | _ -> ())
  | Trace.Free_map -> (
      (* Map memory that belongs to nobody: carve from the free pool,
         release, then wire into the attacker's EPT. *)
      match attacker_ept () with
      | Some ept -> (
          let mem = machine.Machine.mem in
          match Phys_mem.alloc mem ~owner:Owner.Host ~zone:1 ~len:(4 * mib) with
          | Ok r ->
              Phys_mem.release mem r;
              Ept.map_region ept r
          | Error _ -> ())
      | None -> ())
  | Trace.Stale_grant -> (
      (* A doorbell towards a core no live enclave owns — planted on
         the victim's (never-faulted) instance so the stale entry
         survives even when a later fault tears the attacker down. *)
      match instance_of victim with
      | Some i -> Covirt.Whitelist.grant i.Covirt.Controller.whitelist
                    ~vector:0xd1 ~dest:5
      | None -> ())
  | Trace.Freed_access -> (
      (* Hot-add memory, hot-remove it, touch the stale address.  Only
         the shadow sanitizer can see this one — and only when EPT
         enforcement is off (a protected config suppresses the stale
         store before the shadow would). *)
      let pisces = Covirt_hobbes.Hobbes.pisces hobbes in
      match Pisces.add_memory pisces attacker ~zone:0 ~len:(4 * mib) with
      | Error _ -> ()
      | Ok r -> (
          match Pisces.remove_memory pisces attacker r with
          | Error _ -> ()
          | Ok () -> (
              let ctx = Kitten.context attacker_kitten ~core:1 in
              match
                Pisces.run_guarded pisces (fun () ->
                    Kitten.store_addr ctx (r.Region.base + 64))
              with
              | Ok () | Error _ -> ())))

let one_trial ~config ~slot ~trial_seed ~mode =
  Recorder.set_slot slot;
  let sanitize_before = Sanitize.violation_count () in
  let machine_seed = Covirt_sim.Rng.split_seed ~seed:trial_seed ~index:1 in
  let crash = ref None in
  let node_down = ref false in
  let planted = ref [] in
  let verifier_violations = ref 0 in
  let detected = ref [] in
  let collateral = ref false in
  (try
     let machine =
       Machine.create ~seed:machine_seed ~zones:2 ~cores_per_zone:3
         ~mem_per_zone:(4 * gib) ()
     in
     let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
     let pisces = Covirt_hobbes.Hobbes.pisces hobbes in
     let ctrl = Covirt.enable pisces ~config in
     let launch name cores zone =
       match
         Covirt_hobbes.Hobbes.launch_enclave hobbes ~name ~cores
           ~mem:[ (zone, 512 * mib) ] ()
       with
       | Ok pair -> pair
       | Error e -> failwith e
     in
     let attacker, attacker_kitten = launch "attacker" [ 1 ] 0 in
     let victim, victim_kitten = launch "victim" [ 3 ] 1 in
     let ctx = Kitten.context attacker_kitten ~core:1 in
     let injector = Fault_injector.create ~seed:trial_seed () in
     (* Multi-enclave surface: cores the fuzzer's [Spawn] inputs may
        still claim (host 0, attacker 1, victim 3 are taken), and the
        lazily-exported victim segment [Xemem_op] inputs target. *)
     let free_cores = ref [ (0, 2); (1, 4); (1, 5) ] in
     let exported = ref false in
     let xemem_seg = "fuzz-seg" in
     let apply_xemem attach =
       let xemem = Covirt_hobbes.Hobbes.xemem hobbes in
       if attach then begin
         (if not !exported then
            match Kitten.kalloc victim_kitten ~bytes:(4 * mib) with
            | Error _ -> ()
            | Ok base -> (
                match
                  Covirt_xemem.Xemem.export xemem
                    ~exporter:
                      (Covirt_xemem.Name_service.Enclave_export
                         victim.Enclave.id)
                    ~name:xemem_seg
                    ~pages:[ Region.make ~base ~len:(4 * mib) ]
                with
                | Ok _ -> exported := true
                | Error _ -> ()));
         match Covirt_xemem.Xemem.attach xemem attacker ~name:xemem_seg with
         | Ok _ -> Coverage.hit_xemem ~attach:true ~ok:true
         | Error _ -> Coverage.hit_xemem ~attach:true ~ok:false
       end
       else
         match Covirt_xemem.Xemem.detach xemem attacker ~name:xemem_seg with
         | Ok () -> Coverage.hit_xemem ~attach:false ~ok:true
         | Error _ -> Coverage.hit_xemem ~attach:false ~ok:false
     in
     let apply_spawn zone =
       match List.find_opt (fun (z, _) -> z = zone) !free_cores with
       | None -> Coverage.hit_spawn ~ok:false
       | Some (_, core) -> (
           free_cores := List.filter (fun (_, c) -> c <> core) !free_cores;
           match
             Covirt_hobbes.Hobbes.launch_enclave hobbes
               ~name:(Printf.sprintf "extra-%d" core)
               ~cores:[ core ]
               ~mem:[ (zone, 128 * mib) ]
               ()
           with
           | Ok _ -> Coverage.hit_spawn ~ok:true
           | Error _ -> Coverage.hit_spawn ~ok:false)
     in
     (* Apply one input under crash guard; a node panic stops applying
        (the machine is gone) but later inputs are still noted so the
        re-captured trace carries them — replaying the capture skips
        at the same point, deterministically. *)
     let guarded f =
       if not !node_down then
         match Pisces.run_guarded pisces f with
         | Ok () | Error _ -> ()
         | exception Machine.Node_panic _ -> node_down := true
     in
     (match mode with
     | Record_trial schedule ->
         let faults =
           match schedule with
           | None ->
               [
                 Fault_injector.draw injector ~machine_mem
                   ~victim_bsp:(Enclave.bsp victim);
               ]
           | Some batch -> (
               match
                 Fault_injector.due batch ~target:"attacker" ~trial:slot ~now:0
               with
               | Fault_injector.Due faults -> faults
               | Fault_injector.End_of_schedule -> [])
         in
         List.iter
           (fun fault -> guarded (fun () -> Fault_injector.inject injector ctx fault))
           faults
     | Replay_trial inputs ->
         List.iter
           (fun ev ->
             match ev with
             | Trace.Fault { fault; _ } ->
                 (* The fault point re-records this event. *)
                 guarded (fun () ->
                     Fault_injector.inject injector ctx
                       (Recorder.to_fault fault))
             | Trace.Inject_exit { reason; _ } ->
                 Recorder.note ev;
                 guarded (fun () ->
                     let bsp = Enclave.bsp attacker in
                     let cpu = Machine.cpu machine bsp in
                     match Cpu.vmcs cpu with
                     | Some vmcs ->
                         Recorder.load_exit vmcs reason;
                         ignore
                           (Vmx.deliver_exit ~model:machine.Machine.model cpu
                              vmcs)
                     | None -> ())
             | Trace.Corrupt { cls; _ } ->
                 Recorder.note ev;
                 planted := !planted @ [ cls ];
                 if not !node_down then
                   apply_corruption ~machine ~hobbes ~ctrl ~attacker ~victim
                     ~attacker_kitten cls
             | Trace.Xemem_op { attach; _ } ->
                 Recorder.note ev;
                 guarded (fun () -> apply_xemem attach)
             | Trace.Spawn { zone; _ } ->
                 Recorder.note ev;
                 guarded (fun () -> apply_spawn zone)
             | Trace.Exit _ -> ())
           inputs);
     if (not !node_down) && Machine.panicked machine <> None then
       node_down := true;
     (if not !node_down then
        match Kitten.health victim_kitten with
        | `Corrupted _ -> collateral := true
        | `Ok -> ());
     (* The detection oracles, only when something was planted: the
        static verifier sweep plus the shadow sanitizer's typed
        violations for this machine.  They run post-mortem too — a
        node panic later in the slot must not hide what the shadow
        already caught (each [Covirt.enable] re-arms the shadow, so
        the violations are this trial's own). *)
     if !planted <> [] then begin
       let vs =
         (Verifier.run
            ~registry:
              (Covirt_xemem.Xemem.registry (Covirt_hobbes.Hobbes.xemem hobbes))
            ctrl)
           .Verifier.violations
         @ (if Shadow.active () then Shadow.violations () else [])
       in
       verifier_violations := List.length vs;
       detected :=
         List.filter
           (fun cls -> List.exists (violation_matches cls) vs)
           (List.sort_uniq compare !planted)
     end
   with e when not (simulated_exn e) -> crash := Some (Printexc.to_string e));
  let outcome =
    if !node_down then Node_down
    else if !collateral then Collateral
    else Survived
  in
  (* Verdict edges the probe points cannot see — no-ops unless this
     domain's coverage collection is armed. *)
  Coverage.hit_outcome
    (match outcome with
    | Survived -> `Survived
    | Node_down -> `Node_down
    | Collateral -> `Collateral);
  if !crash <> None then Coverage.hit_crash ();
  List.iter Coverage.hit_planted (List.sort_uniq compare !planted);
  List.iter Coverage.hit_detected !detected;
  {
    slot;
    outcome;
    crash = !crash;
    sanitizer_delta = Sanitize.violation_count () - sanitize_before;
    verifier_violations = !verifier_violations;
    planted = List.sort_uniq compare !planted;
    detected = !detected;
  }

(* --- batches -------------------------------------------------------- *)

let summarize ~trace (results : trial_result list) =
  {
    trace;
    results;
    crashes =
      List.filter_map
        (fun (r : trial_result) -> Option.map (fun c -> (r.slot, c)) r.crash)
        results;
    planted =
      List.sort_uniq compare
        (List.concat_map (fun (r : trial_result) -> r.planted) results);
    detected =
      List.sort_uniq compare
        (List.concat_map (fun (r : trial_result) -> r.detected) results);
    sanitizer_flags =
      List.fold_left (fun acc (r : trial_result) -> acc + r.sanitizer_delta) 0
        results;
  }

let resolve_config name =
  match config_of_name name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Scenario: unknown config %S" name)

let record ?schedule ?(sanitize = true) ~config ~seed ~trials () =
  let cfg = { (resolve_config config) with Covirt.Config.sanitize } in
  let schedule_json =
    match schedule with
    | None -> ""
    | Some inj -> Fault_injector.schedule_to_json inj
  in
  let was_recording = Recorder.recording () in
  Recorder.arm ();
  let results =
    List.init trials (fun slot ->
        let trial_seed = Covirt_sim.Rng.split_seed ~seed ~index:slot in
        one_trial ~config:cfg ~slot ~trial_seed ~mode:(Record_trial schedule))
  in
  let events, dropped = Recorder.capture () in
  if not was_recording then Recorder.disarm ();
  let trace =
    Trace.make ~schedule_json ~dropped
      ~scenario:(Trace.Trial_batch { config; seed; trials })
      events
  in
  summarize ~trace results

let replay (trace : Trace.t) =
  match trace.Trace.scenario with
  | Trace.Soak_shard _ ->
      invalid_arg "Scenario.replay: soak-shard traces replay via Replayer"
  | Trace.Trial_batch { config; seed; trials } ->
      (* Replay always runs with the sanitizer armed: observation-only
         and zero-cost, it cannot perturb the replayed stream, and it
         is one of the oracles. *)
      let cfg = { (resolve_config config) with Covirt.Config.sanitize = true } in
      let inputs = Trace.inputs trace in
      let was_recording = Recorder.recording () in
      Recorder.arm ();
      let results =
        List.init trials (fun slot ->
            let trial_seed = Covirt_sim.Rng.split_seed ~seed ~index:slot in
            let slot_inputs =
              List.filter (fun ev -> Trace.slot_of ev = slot) inputs
            in
            one_trial ~config:cfg ~slot ~trial_seed
              ~mode:(Replay_trial slot_inputs))
      in
      let events, dropped = Recorder.capture () in
      if not was_recording then Recorder.disarm ();
      let recaptured =
        Trace.make ~schedule_json:trace.Trace.schedule_json ~dropped
          ~scenario:trace.Trace.scenario events
      in
      summarize ~trace:recaptured results
