open Covirt_hw
open Covirt_pisces

type t = {
  machine : Machine.t;
  cpu : Cpu.t;
  vmcs : Vmcs.t;
  boot_params : Boot_params.covirt;
  whitelist : Whitelist.t;
  report : Fault_report.t -> unit;
  queue : Command.queue;
  mutable flushes : int;
}

let create ~machine ~cpu ~vmcs ~boot_params ~whitelist ~report =
  {
    machine;
    cpu;
    vmcs;
    boot_params;
    whitelist;
    report;
    queue = Command.create_queue ();
    flushes = 0;
  }

let queue t = t.queue
let cpu t = t.cpu
let vmcs t = t.vmcs
let flushes t = t.flushes

let make_report t ~kind ~fatal detail =
  (* the master control process's debugging record: every enforcement
     event also lands in the machine trace ("provided the ability to
     collect debugging traces when it did occur") *)
  let severity =
    if fatal then Covirt_sim.Trace.Error else Covirt_sim.Trace.Warn
  in
  Covirt_sim.Trace.recordf t.machine.Machine.trace ~tsc:(Cpu.rdtsc t.cpu)
    ~cpu:t.cpu.Cpu.id ~severity "covirt %s: %s" (Fault_report.kind_name kind)
    detail;
  {
    Fault_report.enclave = t.vmcs.Vmcs.enclave;
    cpu = t.cpu.Cpu.id;
    tsc = Cpu.rdtsc t.cpu;
    kind;
    fatal;
    detail;
  }

let emulate_cost = 200
let halted = Vmcs.Kill { reason = "halted by controller" }

(* Observability families (interned once; cells are looked up per label
   because the enclave/cpu pair varies per hypervisor instance).  Sites
   guard on [!Metrics.on], keeping the disabled path to one branch. *)
let m_ipi = lazy (Covirt_obs.Metrics.counter "ipi.filter")
let m_shootdown = lazy (Covirt_obs.Metrics.counter "hv.tlb_shootdown")
let m_emul = lazy (Covirt_obs.Metrics.counter "hv.emulation")

let obs_incr t fam dim =
  if !Covirt_obs.Metrics.on then
    Covirt_obs.Metrics.add
      (Covirt_obs.Metrics.cell (Lazy.force fam)
         {
           Covirt_obs.Metrics.enclave = t.vmcs.Vmcs.enclave;
           cpu = t.cpu.Cpu.id;
           dim;
         })
      1

(* Drain the command queue: the controller already rewrote the
   hardware structures; we only activate/invalidate local state. *)
let rec drain_queue t ~killed =
  match Command.dequeue t.queue with
  | None -> killed
  | Some cmd ->
      let killed =
        match cmd with
        | Command.Flush_tlb region ->
            Tlb.flush_range t.cpu.Cpu.tlb region;
            t.flushes <- t.flushes + 1;
            if !Covirt_obs.Metrics.on then obs_incr t m_shootdown "range";
            Cpu.charge t.cpu 300;
            killed
        | Command.Flush_tlb_all ->
            Tlb.flush_all t.cpu.Cpu.tlb;
            t.flushes <- t.flushes + 1;
            if !Covirt_obs.Metrics.on then obs_incr t m_shootdown "all";
            Cpu.charge t.cpu 500;
            killed
        | Command.Reload_vmcs ->
            Cpu.charge t.cpu t.machine.Machine.model.Cost_model.vmcs_load;
            killed
        | Command.Whitelist_updated ->
            (* Decisions are made against the live structure; nothing
               is cached core-locally. *)
            Cpu.charge t.cpu 100;
            killed
        | Command.Halt_core -> true
      in
      drain_queue t ~killed

let access_names = [| "read"; "write"; "exec" |]

(* The exits that report nothing (an allowed IPI, an MSR read,
   emulated instructions, halts, interrupts, an empty NMI drain)
   allocate nothing; the reporting and killing arms format details. *)
let handle_exit t (x : Vmcs.exit_info) : Vmcs.action =
  match x.Vmcs.reason with
  | Vmcs.Ept_violation ->
      let detail =
        Format.asprintf "EPT %s violation at gpa %a"
          access_names.(x.Vmcs.qual land 3)
          Addr.pp x.Vmcs.addr
      in
      t.report (make_report t ~kind:Fault_report.Memory_violation ~fatal:true detail);
      Vmcs.Kill { reason = detail }
  | Vmcs.Icr_write ->
      Cpu.charge t.cpu t.machine.Machine.model.Cost_model.icr_whitelist_check;
      let kind = Apic.kind_of_code x.Vmcs.qual in
      if Whitelist.permits t.whitelist ~dest:x.Vmcs.addr ~vector:x.Vmcs.value ~kind
      then begin
        if !Covirt_obs.Metrics.on then obs_incr t m_ipi "allowed";
        Vmcs.Resume
      end
      else begin
        Whitelist.note_dropped t.whitelist;
        if !Covirt_obs.Metrics.on then obs_incr t m_ipi "dropped";
        t.report
          (make_report t ~kind:Fault_report.Errant_ipi ~fatal:false
             (Format.asprintf "dropped %a" Apic.pp_icr
                { Apic.dest = x.Vmcs.addr; vector = x.Vmcs.value; kind }));
        Vmcs.Skip
      end
  | Vmcs.Msr_access ->
      if x.Vmcs.qual = 1 then begin
        let detail =
          Format.asprintf "write to protected MSR 0x%x" x.Vmcs.addr
        in
        t.report
          (make_report t ~kind:Fault_report.Msr_violation ~fatal:true detail);
        Vmcs.Kill { reason = detail }
      end
      else begin
        (* Protected reads are emulated from the live register file. *)
        if !Covirt_obs.Metrics.on then obs_incr t m_emul "msr-read";
        Cpu.charge t.cpu emulate_cost;
        Vmcs.Resume
      end
  | Vmcs.Io_access ->
      if x.Vmcs.qual = 1 then begin
        let detail =
          Format.asprintf "write to protected I/O port 0x%x" x.Vmcs.addr
        in
        t.report
          (make_report t ~kind:Fault_report.Io_violation ~fatal:true detail);
        Vmcs.Kill { reason = detail }
      end
      else begin
        t.report
          (make_report t ~kind:Fault_report.Io_violation ~fatal:false
             (Format.asprintf "suppressed read of protected port 0x%x"
                x.Vmcs.addr));
        Vmcs.Skip
      end
  | Vmcs.Cpuid | Vmcs.Xsetbv ->
      if !Covirt_obs.Metrics.on then
        obs_incr t m_emul
          Vmcs.exit_reason_names.(Vmcs.code x.Vmcs.reason);
      Cpu.charge t.cpu emulate_cost;
      Vmcs.Resume
  | Vmcs.Hlt ->
      (* Emulated halt: the core idles until the next event; nothing
         to charge beyond the exit itself. *)
      Vmcs.Resume
  | Vmcs.External_interrupt ->
      (* Re-inject into the guest (cost charged by the machine). *)
      Vmcs.Resume
  | Vmcs.Nmi_exit ->
      if drain_queue t ~killed:false then halted else Vmcs.Skip
  | Vmcs.Abort ->
      let detail = Format.asprintf "abort-class exception: %s" x.Vmcs.what in
      t.report
        (make_report t ~kind:Fault_report.Abort_fault ~fatal:true detail);
      Vmcs.Kill { reason = detail }

let launch t =
  (* The execution context is minimal: a preallocated stack, no
     dynamic memory.  Setup cost covers serializing the pre-written
     VMCS onto the core. *)
  assert (
    t.boot_params.Boot_params.hypervisor_stack.Region.len
    = Boot_params.hypervisor_stack_bytes);
  t.vmcs.Vmcs.exit_handler <- Some (handle_exit t);
  Vmx.vmlaunch ~model:t.machine.Machine.model t.cpu t.vmcs
