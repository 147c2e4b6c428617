(** The Pisces co-kernel framework.

    Partitions the machine into enclaves, boots co-kernels into them,
    and runs the host side of the control protocol: dynamic memory
    assignment, XEMEM page-list transmission, IPI-vector granting,
    system-call forwarding, teardown and crash reclamation.

    Pisces itself provides {e no} protection: it trusts every
    co-kernel to respect its assignment.  Covirt attaches to the
    {!Hooks.t} exposed here. *)

open Covirt_hw

type kernel = {
  kernel_name : string;
  boot_core :
    Machine.t -> Enclave.t -> Cpu.t -> bsp:bool -> Boot_params.pisces -> unit;
      (** the co-kernel entry point the trampoline jumps to; called
          once per assigned core, boot core first *)
}

type crash = { enclave_id : int; cpu_id : int; reason : string }

type t

val create : Machine.t -> host_core:int -> t
(** The master control process runs on [host_core], which must stay
    host-owned for the lifetime of the framework. *)

val machine : t -> Machine.t
val host_cpu : t -> Cpu.t

val host_tsc : t -> int
(** Current TSC of the host control core — exposed so layers above the
    hardware boundary (e.g. the load generator) can timestamp control
    operations without reaching into [lib/hw]. *)

val core_tsc : t -> int -> int
(** Current TSC of an arbitrary core, by id. *)

val tsc_ghz : t -> float
(** The machine cost model's TSC frequency in GHz — for converting
    measured cycles to wall units above the hardware boundary. *)

val hooks : t -> Hooks.t

val enclaves : t -> Enclave.t list
(** The {e live} enclaves (newest first).  Destroyed and reclaimed
    enclaves are removed from the registry — a dense node cycling
    thousands of tenants must not grow this list monotonically. *)

val find_enclave : t -> int -> Enclave.t option
(** Live enclaves only; [None] once destroyed or reclaimed.  O(1). *)

val grantors_to : t -> cores:int list -> Enclave.t list
(** The live enclaves holding an IPI-vector grant whose destination is
    one of [cores], newest first.  Read from an index that
    {!grant_ipi_vector}, {!revoke_ipi_vector} and teardown keep, so the
    cost is O(the grantors found), not O(live enclaves). *)

val vector_grantors : t -> vector:int -> Enclave.t list
(** The live enclaves holding a grant of [vector] to any destination,
    newest first; indexed like {!grantors_to}. *)

val create_enclave :
  t ->
  name:string ->
  cores:int list ->
  mem:(Numa.zone * int) list ->
  ?timer_hz:float ->
  unit ->
  (Enclave.t, string) result
(** Claim the cores and allocate contiguous memory per zone.  Fails if
    a core is the host core, offline, or already assigned, or if
    memory cannot be allocated.  [timer_hz] defaults to 10 (an LWK
    keeps its tick rate minimal). *)

val boot : t -> Enclave.t -> kernel:kernel -> (unit, string) result
(** Assign cores, build boot parameters, and enter the kernel on every
    core (through the boot interposer when one is installed).  Returns
    an error if the kernel never reported ready. *)

val add_memory :
  t -> Enclave.t -> zone:Numa.zone -> len:int -> (Region.t, string) result
(** Hot-add memory: allocate, run [pre_memory_map] hooks, transmit the
    region, await the ack. *)

val remove_memory : t -> Enclave.t -> Region.t -> (unit, string) result
(** Hot-remove: transmit, await ack, run [post_memory_unmap] hooks,
    then release the frames to the host pool — in that order. *)

val map_shared :
  t -> Enclave.t -> segid:int -> pages:Region.t list ->
  (unit, string) result
(** XEMEM attach path: [pre_memory_map] hooks first, then page-list
    transmission (charged per frame entry), then ack. *)

val unmap_shared :
  t -> Enclave.t -> segid:int -> pages:Region.t list ->
  ?skip_enclave_notify:bool -> unit -> (unit, string) result
(** XEMEM detach path: transmission + ack, then [post_memory_unmap]
    hooks.  [skip_enclave_notify] simulates the paper's war-story
    cleanup bug: the host-side teardown (including Covirt's EPT
    unmap) runs, but the co-kernel is never told and its memory map
    goes stale. *)

val assign_device :
  t -> Enclave.t -> device:string -> (Region.t, string) result
(** Delegate a device's MMIO window to the enclave: ownership moves to
    the enclave, [pre_memory_map] hooks make the window accessible in
    the virtualization context, then the kernel is told where its
    device lives.  Fails if the device is unknown or already
    delegated. *)

val revoke_device : t -> Enclave.t -> device:string -> (unit, string) result
(** Take the window back: kernel notified and acked, hooks pull the
    mapping (with flushes), ownership returns to the device. *)

val grant_ipi_vector :
  t -> Enclave.t -> vector:int -> peer_core:int -> (unit, string) result

val revoke_ipi_vector :
  ?peer_core:int -> t -> Enclave.t -> vector:int -> (unit, string) result
(** Revoke the grant for [(vector, peer_core)] only; with [peer_core]
    omitted, revoke the vector for every destination.  Grants of the
    same vector to other cores survive a narrowed revocation. *)

val set_syscall_handler : t -> (number:int -> arg:int -> int) -> unit
(** Host-side servicing of forwarded system calls. *)

val service_channel : ?max:int -> t -> Enclave.t -> int
(** Process pending enclave-to-host messages (syscall requests,
    console output); returns the number serviced.  [max] bounds how
    many messages one poll drains (all by default) — the batched mode
    the dense control plane uses to keep per-poll work amortised O(1)
    per message while preserving per-enclave FIFO order. *)

val run_guarded : t -> (unit -> 'a) -> ('a, crash) result
(** Run enclave code, converting a {!Vmx.Vm_terminated} (Covirt
    containment) into a reclaimed enclave and a [crash] result.  A
    {!Machine.Node_panic} is {e not} caught: an unprotected fault
    takes the node down, as on hardware. *)

val destroy : t -> Enclave.t -> unit
(** Graceful shutdown: notify the kernel, run destroy hooks, reclaim
    cores and memory, and drop the enclave from the live registry. *)

val reclaim_crashed : t -> Enclave.t -> reason:string -> unit
(** Post-crash reclamation (what the master control process does after
    the hypervisor reports a termination).  Also drops the enclave
    from the live registry. *)

val pp_crash : Format.formatter -> crash -> unit
