(** The Kitten lightweight kernel (co-kernel model).

    Provides the LWK behaviours Covirt's evaluation depends on:
    contiguous physical memory with large pages, a minimal-noise
    timer, local handling of performance-critical system calls with
    forwarding for the rest, direct IPI use, and — critically — a
    private {!Memmap} view of its resources that is synchronised with
    the host over the Pisces control channel and can therefore go
    stale.

    A kernel instance is created by {!make_kernel} and booted through
    {!Covirt_pisces.Pisces.boot}; it behaves identically whether it
    runs natively or under the Covirt hypervisor (the transparency
    property: the boot-parameter structure it receives is the same). *)

open Covirt_hw
open Covirt_pisces

type t

type context = { machine : Machine.t; kernel : t; cpu : Cpu.t }
(** Execution environment for code running on one of the kernel's
    cores (kernel threads, workload processes). *)

type stats = {
  mutable ticks : int;
  mutable syscalls_local : int;
  mutable syscalls_forwarded : int;
  mutable irqs : int;
  mutable spurious_irqs : int;
}

exception Kernel_panic of { enclave : int; reason : string }
(** Raised when the kernel trips over its own corrupted state (the
    delayed consequence of a wild write into it). *)

val make_kernel : unit -> Pisces.kernel * (unit -> t option)
(** [(kernel, get)] — pass [kernel] to {!Pisces.boot}; after a
    successful boot [get ()] returns the live instance. *)

val machine : t -> Machine.t
val enclave_id : t -> int
val memmap : t -> Memmap.t

val page_table : t -> Guest_pt.t
(** The kernel's page tables: a boot-time direct map of all physical
    RAM (static thereafter — the LWK policy). *)

val params : t -> Boot_params.pisces
val stats : t -> stats
val cores : t -> int list

val context : t -> core:int -> context
(** [Invalid_argument] if [core] is not one of the kernel's cores. *)

val kalloc : ?near_core:int -> t -> bytes:int -> (Addr.t, string) result
(** Contiguous physical allocation from the believed memory map
    (Kitten policy: simple, contiguous, 2M-aligned).  [near_core]
    prefers heap regions in that core's NUMA zone (Kitten's NUMA-aware
    first-touch analogue), falling back to any zone. *)

val run_with_ticks : context -> (unit -> 'a) -> 'a
(** Run a computation and then account the local-APIC timer ticks that
    elapsed on this core while it ran (mode-dependent delivery cost —
    this is where virtualized interrupt overhead reaches
    applications). *)

val syscall : context -> number:int -> arg:int -> int
(** Dispatch per {!Syscall.disposition}: local calls are handled in a
    few hundred cycles; forwarded ones ride the control channel to the
    host OS/R and back. *)

val set_host_poke : t -> (unit -> unit) -> unit
(** Wire the host-side channel servicing (the Hobbes runtime installs
    [fun () -> ignore (Pisces.service_channel ...)]). *)

val heartbeat : context -> unit
(** Send a {!Covirt_pisces.Message.Heartbeat} over the control channel
    — the explicit sign of life the supervision watchdog monitors. *)

val register_irq : t -> vector:int -> (context -> int -> unit) -> unit
val send_ipi : context -> dest:int -> vector:int -> unit
(** Transmit a fixed IPI; under Covirt's IPI protection this traps to
    the whitelist check. *)

val health : t -> [ `Ok | `Corrupted of string ]
val assert_healthy : t -> unit
(** Raise {!Kernel_panic} if corrupted — models the kernel eventually
    tripping over smashed state. *)

(* Fault injectors: deliberate bugs from the paper's taxonomy. *)

val load_addr : context -> Addr.t -> unit
val store_addr : context -> Addr.t -> unit
(** Raw accesses through the full translation path. *)

val inject_phantom_region : t -> Region.t -> unit
(** Desynchronise the believed map: the kernel now thinks it owns
    [region]. *)

val touch_believed_memory : context -> Addr.t -> unit
(** Access an address the kernel believes is usable ([Invalid_argument]
    if it does not — the injector is for believed-but-wrong state). *)

val spin_wedged : context -> cycles:int -> unit
(** Livelock: burn cycles on the core without trapping, messaging or
    ticking.  Containment never notices (nothing errant happens); only
    the watchdog's progress tracking can. *)

val wrmsr_sensitive : context -> unit
(** Write IA32_SMM_MONITOR_CTL — a forbidden MSR. *)

val out_reset_port : context -> unit
(** Write 0x6 to port 0xCF9 (hard reset). *)

val trigger_double_fault : context -> unit

val poke_device : context -> name:string -> offset:int -> unit
(** Driver access to a delegated device's MMIO window
    ([Invalid_argument] if the kernel holds no such device or the
    offset is outside the BAR). *)

val poke_foreign_mmio : context -> Addr.t -> unit
(** The errant-driver fault: map and write MMIO space the enclave was
    never delegated. *)
