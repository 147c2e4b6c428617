exception
  Vm_terminated of { cpu_id : int; enclave : int; reason : string }

(* Record tap: the replay recorder (lib/replay) observes every
   delivered exit through this hook.  Same contract as the obs and
   sanitizer hooks — one [!tap_on] branch when disarmed, and the tap
   itself never charges simulated cycles, so a recorded run is
   byte-identical to an unrecorded one. *)
let tap_on = ref false
let exit_tap : (Cpu.t -> Vmcs.t -> unit) ref = ref (fun _ _ -> ())

(* Coverage tap: the replay fuzzer's guidance observes every
   (exit-reason arm, handler outcome) edge through this hook.  Same
   zero-cost contract as [exit_tap]: one [!cov_on] branch when
   disarmed, and the tap never charges simulated cycles or draws
   randomness, so an armed run stays byte-identical. *)
let cov_on = ref false
let cov_exit_tap : (int -> int -> unit) ref = ref (fun _ _ -> ())

let vmlaunch ~model cpu vmcs =
  if Cpu.in_guest cpu then invalid_arg "Vmx.vmlaunch: already in guest mode";
  Cpu.charge cpu Cost_model.(model.vmcs_load + model.vmlaunch);
  vmcs.Vmcs.launched <- true;
  cpu.Cpu.mode <- Cpu.Guest_mode vmcs

let vmexit_cost ~model = Cost_model.(model.vmexit_roundtrip + model.exit_dispatch)

(* No hypervisor: nothing can make progress safely. *)
let no_handler = Vmcs.Kill { reason = "no exit handler installed" }

(* warm-begin: a non-kill exit allocates nothing.  The exit site has
   filled the VMCS's preallocated exit record; the reason is an
   immediate, the handler a closure built at launch, and the taps and
   the obs record sit under their enable flags. *)
let deliver_exit ~model cpu vmcs =
  let t0 = cpu.Cpu.tsc in
  Cpu.charge cpu (vmexit_cost ~model);
  (* Read before the handler runs: a handler may deliver another exit
     on this VMCS, which overwrites the record. *)
  let code = Vmcs.code vmcs.Vmcs.exit.Vmcs.reason in
  vmcs.Vmcs.exits.(code) <- vmcs.Vmcs.exits.(code) + 1;
  (* Tap before the handler runs so killed exits are recorded too. *)
  if !tap_on then !exit_tap cpu vmcs;
  let action =
    match vmcs.Vmcs.exit_handler with
    | Some handler -> handler vmcs.Vmcs.exit
    | None -> no_handler
  in
  (* Coverage edge: reason arm x what the handler decided.  Observed
     before acting so killed exits contribute their edge too. *)
  if !cov_on then
    !cov_exit_tap code
      (match action with
      | Vmcs.Resume -> 0
      | Vmcs.Skip -> 1
      | Vmcs.Kill _ -> 2);
  (* Record before acting so killed exits are attributed too.  Guarded
     observation only: no simulated cycles move here. *)
  if !Covirt_obs.Metrics.on || !Covirt_obs.Exporter.on then
    Covirt_obs.Vmexit.record ~enclave:vmcs.Vmcs.enclave ~cpu:cpu.Cpu.id
      ~reason:Vmcs.exit_reason_names.(code) ~t0 ~t1:cpu.Cpu.tsc;
  match action with
  | Vmcs.Resume -> `Resume
  | Vmcs.Skip -> `Skip
  (* warm-end *)
  | Vmcs.Kill { reason = why } ->
      cpu.Cpu.online <- false;
      raise
        (Vm_terminated
           { cpu_id = cpu.Cpu.id; enclave = vmcs.Vmcs.enclave; reason = why })

let teardown cpu =
  cpu.Cpu.mode <- Cpu.Host_mode;
  cpu.Cpu.online <- true
