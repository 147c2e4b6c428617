(** The per-core Covirt hypervisor.

    "Each hypervisor context only supports a single CPU core and is
    unaware of other hypervisor instances managing other enclave
    CPUs."  A hypervisor owns one VMCS, one command queue and an 8KB
    stack; it initializes the core's virtualization context, launches
    the guest, and thereafter only runs on exits: enforcing the
    whitelist, emulating the few trapped instructions, draining the
    command queue on NMI doorbells, and terminating the enclave on
    abort-class violations. *)

open Covirt_hw
open Covirt_pisces

type t

val create :
  machine:Machine.t ->
  cpu:Cpu.t ->
  vmcs:Vmcs.t ->
  boot_params:Boot_params.covirt ->
  whitelist:Whitelist.t ->
  report:(Fault_report.t -> unit) ->
  t

val launch : t -> unit
(** Install the exit handler on the VMCS and perform the VM launch;
    the caller then jumps into the co-kernel entry point, which runs
    in VMX non-root mode. *)

val queue : t -> Command.queue
val cpu : t -> Cpu.t
val vmcs : t -> Vmcs.t
val flushes : t -> int
(** TLB flushes performed on behalf of controller commands. *)
