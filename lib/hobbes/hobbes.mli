(** The Hobbes OS/R runtime (master control process).

    Ties the substrates together the way the Hobbes stack does on real
    systems: Pisces partitions and boots, Kitten runs in the enclaves,
    XEMEM carries shared memory, and this runtime owns the global
    resource coordination — enclave registry, the application-IPI
    vector space, system-call forwarding, and composite-application
    launch.  Covirt's controller module integrates with the master
    control process; it attaches to the {!Covirt_pisces.Hooks.t}
    reachable through [Pisces.hooks (pisces t)]. *)

open Covirt_hw
open Covirt_pisces
open Covirt_kitten

type t

val create : Machine.t -> host_core:int -> t
(** Also registers the runtime's destroy-time scrub on the framework's
    [on_enclave_destroyed] hook: kernel-registry entry, allocated
    application-IPI vectors and name-service records of a destroyed
    (or crash-reclaimed) enclave are retired automatically, so dense
    create/destroy churn leaves no monotonic state behind.  Segments
    the dead enclave exported are reclaimed through the proper XEMEM
    path — surviving attachers are notified and unmapped — and
    surviving enclaves' IPI grants whose destination core belonged
    to the dead enclave are revoked (stale per-core whitelist state
    the verifier would otherwise flag as [Stale_grant]). *)

val create_node :
  ?seed:int ->
  ?zones:int ->
  ?host_reserved_mib:int ->
  cores_per_zone:int ->
  mem_mib_per_zone:int ->
  unit ->
  t
(** Build a fresh machine (host core 0) and a runtime on it — the
    whole-node constructor layers above the hardware boundary (e.g.
    the load generator, which may not touch [lib/hw]) use.  Memory
    arguments are in MiB; [host_reserved_mib] defaults to 128. *)

val pisces : t -> Pisces.t
val xemem : t -> Covirt_xemem.Xemem.t
val machine : t -> Machine.t

val launch_enclave :
  t ->
  name:string ->
  cores:int list ->
  mem:(Numa.zone * int) list ->
  ?timer_hz:float ->
  unit ->
  (Enclave.t * Kitten.t, string) result
(** Create a Pisces enclave, boot Kitten into it, wire the host-side
    channel servicing and the default syscall handler. *)

val kernel_of : t -> Enclave.t -> Kitten.t option

val kernel_count : t -> int
(** Live kernel-registry entries — equals the live enclave count when
    nothing leaks (churn observability). *)

val export_window :
  t ->
  Enclave.t ->
  name:string ->
  offset:int ->
  len:int ->
  (int, string) result
(** Export a [len]-byte window at [offset] into the enclave's first
    owned region as a named XEMEM segment; returns the segid.  Offset
    and length must be page-multiples and lie inside the region. *)

val alloc_ipi_vector : t -> (int, string) result
(** Carve a vector out of the globally allocatable application-IPI
    space ("per-core IPI vectors are a globally allocatable
    application resource"). *)

val free_ipi_vector : t -> int -> unit

val free_vector_count : t -> int
(** Vectors currently in the allocatable pool; O(1), so callers may
    poll it before every grant. *)

val allocated_vector_count : t -> int
(** Vectors handed out by {!alloc_ipi_vector} and not yet freed.
    [free_vector_count + allocated_vector_count] is conserved at the
    vector-space size when nothing leaks. *)

val grant_vector_pair :
  t -> Enclave.t -> Enclave.t -> (int * int, string) result
(** Allocate and grant a doorbell vector in each direction between two
    enclaves; returns [(vector_a_to_b, vector_b_to_a)]. *)

val syscalls_serviced : t -> int
val pp_status : Format.formatter -> t -> unit
