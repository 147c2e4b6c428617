(** The IHK/McKernel proxy process (host side).

    IHK/McKernel's signature design point: every McKernel process has a
    shadow "proxy process" on the host Linux, and system calls are
    delegated to it — which "requires address space replication" so the
    proxy can dereference the application's pointers.  This module is
    that host-side half: a mirror of the application's memory regions
    that must be kept in sync (per-page transmission costs, charged to
    the host core) and a delegation endpoint that services forwarded
    calls against the mirror.

    The replication is also a fault surface of its own: a syscall whose
    buffer lies outside the mirrored set is a delegation failure the
    kernel must surface (modelled as -EFAULT), unlike Hobbes' XEMEM
    forwarding where the regions are shared rather than replicated. *)

open Covirt_hw

type t

val create : Machine.t -> host_cpu:Cpu.t -> t

val mirror : t -> Region.t -> unit
(** Replicate an application region into the proxy's address space
    (charged per 4K page). *)

val unmirror : t -> Region.t -> unit

val delegate : t -> number:int -> buffer:Region.t option -> int
(** Service a delegated syscall.  A buffer outside the mirror is
    -EFAULT (-14); otherwise the call succeeds with a nominal result
    and the proxy charges the host for the work. *)

val delegations : t -> int
val faults : t -> int
(** -EFAULT count (mirror desyncs observed). *)
