(** The McKernel lightweight kernel (IHK/McKernel architecture).

    A third co-kernel design point, "similar in many ways to Hobbes,
    except the degree of integration between the co-kernel and host
    OS, Linux, is substantially higher": {e every} system call is
    delegated to the host through the per-process {!Proxy}, and the
    application's address space is replicated into the proxy so the
    host can dereference its pointers.

    The Covirt-relevant properties match Kitten's where they must (a
    believed memory map synchronized over the control channel, a full
    direct map, native hardware access) and differ where IHK/McKernel
    differs (no local syscall fast path, replication instead of shared
    mappings, a mirror that can desynchronize).  The controller
    protects it with zero McKernel-specific code — the paper's
    generalizability claim. *)

open Covirt_hw
open Covirt_pisces

type t

val make_kernel : unit -> Pisces.kernel * (unit -> t option)
val enclave_id : t -> int
val memmap : t -> Region.Set.t
(** The believed usable set. *)

val proxy : t -> Proxy.t
val context_cpu : t -> core:int -> Cpu.t

val alloc_app_memory : t -> bytes:int -> (Region.t, string) result
(** Allocate application memory AND replicate it into the proxy (the
    IHK/McKernel contract: allocation is visible host-side before any
    syscall can reference it). *)

val syscall : t -> core:int -> number:int -> buffer:Region.t option -> int
(** Always delegated: trap into the kernel, ship to the proxy, charge
    the delegation round trip, return the proxy's result. *)

val syscalls_delegated : t -> int

(* Fault injectors. *)

val wild_write : t -> core:int -> Addr.t -> unit

val desync_mirror : t -> Region.t -> unit
(** The replication-bug class: drop a region from the proxy's mirror
    while the application still uses it (the IHK/McKernel analogue of
    the XEMEM cleanup bug). *)
