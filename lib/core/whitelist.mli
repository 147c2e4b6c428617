(** IPI transmission whitelist.

    The hypervisor "compare[s] the destination CPU and vector against
    a whitelist in order to verify that the IPI operation is
    permitted, and any errant IPIs are simply dropped".  Intra-enclave
    fixed IPIs are always permitted (the enclave owns those cores);
    cross-enclave doorbells require an explicit (vector, destination)
    grant, which the controller installs when Hobbes grants the
    vector.  INIT/SIPI/NMI never cross the enclave boundary. *)

open Covirt_hw

type t

val create : enclave_cores:int list -> t

val create_indexed :
  index:Covirt_pisces.Grant_index.t -> holder:int -> enclave_cores:int list -> t
(** A whitelist whose grants are also counted in [index], keyed by
    destination core, under [holder] — every grant, however installed,
    so a teardown can find the whitelists aiming at a dying core
    without scanning them all. *)

val grant : t -> vector:int -> dest:int -> unit
val revoke : ?dest:int -> t -> vector:int -> unit
(** Remove the grant for [(vector, dest)] only; with [dest] omitted,
    remove every destination granted that vector.  Other grants are
    untouched — revoking one peer's doorbell must not kill the same
    vector granted to a different core. *)

val clear : t -> unit
(** Drop every grant (controller detach — no stale entries may outlive
    the controller that installed them). *)

val retire : t -> unit
(** Take the whitelist out of its index, keeping its grants readable
    (the instance it guarded is gone); later changes are not indexed. *)

val permits : t -> dest:int -> vector:int -> kind:Apic.ipi_kind -> bool
(** Whether an ICR write of [vector] and [kind] to core [dest] may
    leave the enclave.  Allocates nothing. *)

val note_dropped : t -> unit
val dropped : t -> int
val grants : t -> (int * int) list
(** Current (vector, dest) pairs. *)
