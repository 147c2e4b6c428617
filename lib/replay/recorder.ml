(* The recorder: subscribes to the two nondeterministic boundaries —
   VM-exit dispatch ([Vmx.exit_entry]) and fault application
   ([Fault_injector.applied]) — and keeps what they carry in a
   per-domain ring of trace events.

   The ring is Domain-local: every fleet shard records its own trial
   without touching its neighbours'.  The subscribers gate on the
   domain's [recording] flag, so a point firing in a domain that never
   armed is ignored. *)

open Covirt_hw
module Fault_injector = Covirt_resilience.Fault_injector

(* --- payload conversions -------------------------------------------- *)

let of_exit (x : Vmcs.exit_info) : Trace.exit_payload =
  match x.Vmcs.reason with
  | Vmcs.Ept_violation ->
      Trace.X_ept
        {
          gpa = x.Vmcs.addr;
          access = x.Vmcs.qual land 3;
          not_mapped = x.Vmcs.qual land Vmcs.ept_present = 0;
        }
  | Vmcs.Icr_write ->
      Trace.X_icr { dest = x.Vmcs.addr; vector = x.Vmcs.value; kind = x.Vmcs.qual }
  | Vmcs.Msr_access ->
      Trace.X_msr
        { msr = x.Vmcs.addr; write = x.Vmcs.qual = 1; value = x.Vmcs.msr_value }
  | Vmcs.Io_access ->
      Trace.X_io
        { port = x.Vmcs.addr; write = x.Vmcs.qual = 1; value = x.Vmcs.value }
  | Vmcs.Cpuid -> Trace.X_cpuid
  | Vmcs.Xsetbv -> Trace.X_xsetbv
  | Vmcs.Hlt -> Trace.X_hlt
  | Vmcs.External_interrupt -> Trace.X_intr { vector = x.Vmcs.value }
  | Vmcs.Nmi_exit -> Trace.X_nmi
  | Vmcs.Abort -> Trace.X_abort { what = x.Vmcs.what }

let load_exit (vmcs : Vmcs.t) : Trace.exit_payload -> unit =
  let set = Vmcs.set_exit vmcs in
  let flag b = if b then 1 else 0 in
  function
  | Trace.X_ept { gpa; access; not_mapped } ->
      set Vmcs.Ept_violation
        ~qual:(access lor if not_mapped then 0 else Vmcs.ept_present)
        ~addr:gpa ~value:0
  | Trace.X_icr { dest; vector; kind } ->
      set Vmcs.Icr_write ~qual:kind ~addr:dest ~value:vector
  | Trace.X_msr { msr; write; value } ->
      vmcs.Vmcs.exit.Vmcs.msr_value <- value;
      set Vmcs.Msr_access ~qual:(flag write) ~addr:msr ~value:0
  | Trace.X_io { port; write; value } ->
      set Vmcs.Io_access ~qual:(flag write) ~addr:port ~value
  | Trace.X_cpuid -> set Vmcs.Cpuid ~qual:0 ~addr:0 ~value:0
  | Trace.X_xsetbv -> set Vmcs.Xsetbv ~qual:0 ~addr:0 ~value:0
  | Trace.X_hlt -> set Vmcs.Hlt ~qual:0 ~addr:0 ~value:0
  | Trace.X_intr { vector } ->
      set Vmcs.External_interrupt ~qual:0 ~addr:0 ~value:vector
  | Trace.X_nmi -> set Vmcs.Nmi_exit ~qual:0 ~addr:0 ~value:0
  | Trace.X_abort { what } ->
      vmcs.Vmcs.exit.Vmcs.what <- what;
      set Vmcs.Abort ~qual:0 ~addr:0 ~value:0

let of_fault : Fault_injector.fault -> Trace.fault_payload = function
  | Fault_injector.Wild_write a -> Trace.F_wild a
  | Fault_injector.Phantom_touch a -> Trace.F_phantom a
  | Fault_injector.Errant_ipi { dest; vector } -> Trace.F_ipi { dest; vector }
  | Fault_injector.Msr_write -> Trace.F_msr
  | Fault_injector.Port_reset -> Trace.F_port
  | Fault_injector.Double_fault -> Trace.F_double
  | Fault_injector.Wedge { cycles } -> Trace.F_wedge { cycles }

let to_fault : Trace.fault_payload -> Fault_injector.fault = function
  | Trace.F_wild a -> Fault_injector.Wild_write a
  | Trace.F_phantom a -> Fault_injector.Phantom_touch a
  | Trace.F_ipi { dest; vector } -> Fault_injector.Errant_ipi { dest; vector }
  | Trace.F_msr -> Fault_injector.Msr_write
  | Trace.F_port -> Fault_injector.Port_reset
  | Trace.F_double -> Fault_injector.Double_fault
  | Trace.F_wedge { cycles } -> Fault_injector.Wedge { cycles }

(* --- the per-domain ring -------------------------------------------- *)

let default_capacity = 65536

type dls = {
  mutable recording : bool;
  mutable slot : int;
  mutable ring : Trace.event array;
  mutable start : int;  (** index of the oldest live event *)
  mutable count : int;
  mutable dropped : int;
}

let dls_key =
  Domain.DLS.new_key (fun () ->
      {
        recording = false;
        slot = 0;
        ring = [||];
        start = 0;
        count = 0;
        dropped = 0;
      })

let dls () = Domain.DLS.get dls_key

let push ev =
  let d = dls () in
  let cap = Array.length d.ring in
  if d.count < cap then begin
    d.ring.((d.start + d.count) mod cap) <- ev;
    d.count <- d.count + 1
  end
  else begin
    (* Ring full: evict the oldest so the trailing window survives —
       the shape quarantine captures want. *)
    d.ring.(d.start) <- ev;
    d.start <- (d.start + 1) mod cap;
    d.dropped <- d.dropped + 1
  end

(* --- subscribers ----------------------------------------------------- *)

let on_exit cpu (vmcs : Vmcs.t) =
  let d = dls () in
  if d.recording then
    push
      (Trace.Exit
         {
           slot = d.slot;
           cpu = cpu.Cpu.id;
           enclave = vmcs.Vmcs.enclave;
           tsc = cpu.Cpu.tsc;
           reason = of_exit vmcs.Vmcs.exit;
         })

let on_fault fault () =
  let d = dls () in
  if d.recording then
    push (Trace.Fault { slot = d.slot; fault = of_fault fault })

let () =
  Covirt_obs.Probe.subscribe Vmx.exit_entry on_exit;
  Covirt_obs.Probe.subscribe Fault_injector.applied on_fault

let recording () = (dls ()).recording

let arm ?(capacity = default_capacity) () =
  let d = dls () in
  if not d.recording then begin
    d.recording <- true;
    d.slot <- 0;
    d.ring <- Array.make capacity (Trace.Inject_exit { slot = 0; reason = Trace.X_hlt });
    d.start <- 0;
    d.count <- 0;
    d.dropped <- 0;
    Covirt_obs.Probe.arm ()
  end

let disarm () =
  let d = dls () in
  if d.recording then begin
    d.recording <- false;
    d.ring <- [||];
    d.count <- 0;
    d.start <- 0;
    Covirt_obs.Probe.disarm ()
  end

let set_slot n = (dls ()).slot <- n

let note ev = if (dls ()).recording then push ev

let capture () =
  let d = dls () in
  let events =
    List.init d.count (fun i -> d.ring.((d.start + i) mod Array.length d.ring))
  in
  let dropped = d.dropped in
  d.start <- 0;
  d.count <- 0;
  d.dropped <- 0;
  (events, dropped)
