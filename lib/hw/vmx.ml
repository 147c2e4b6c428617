exception
  Vm_terminated of { cpu_id : int; enclave : int; reason : string }

(* Probe points (see [Covirt_obs.Probe]): the exit as delivered, and
   the (reason, handler action) edge it took. *)
let exit_entry : (Cpu.t, Vmcs.t) Covirt_obs.Probe.point =
  Covirt_obs.Probe.point ()

let exit_edge : (int, Vmcs.action) Covirt_obs.Probe.point =
  Covirt_obs.Probe.point ()

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
   immediate, the handler a closure built at launch, and the probes
   and the obs record sit under their enable flags. *)
let deliver_exit ~model cpu vmcs =
  let t0 = cpu.Cpu.tsc in
  Cpu.charge cpu (vmexit_cost ~model);
  (* Read before the handler runs: a handler may deliver another exit
     on this VMCS, which overwrites the record. *)
  let code = Vmcs.code vmcs.Vmcs.exit.Vmcs.reason in
  vmcs.Vmcs.exits.(code) <- vmcs.Vmcs.exits.(code) + 1;
  (* Fired before the handler runs so killed exits are recorded too. *)
  if !Covirt_obs.Probe.on then Covirt_obs.Probe.fire exit_entry cpu vmcs;
  let action =
    match vmcs.Vmcs.exit_handler with
    | Some handler -> handler vmcs.Vmcs.exit
    | None -> no_handler
  in
  (* Observed before acting so killed exits contribute their edge too. *)
  if !Covirt_obs.Probe.on then Covirt_obs.Probe.fire exit_edge code action;
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
