(** Local APIC, one per CPU core.

    Holds the interrupt state Covirt's IPI protection operates on: the
    interrupt request register (IRR), the interrupt command register
    (ICR) used to transmit IPIs, the local timer, and the
    posted-interrupt descriptor (PIR) used by the PIV delivery mode.
    Delivery mechanics (routing an ICR write to the destination core,
    trapping in the hypervisor) live in {!Machine}; this module is the
    per-core register state. *)

type ipi_kind = Fixed | Nmi | Init | Startup

type icr = { dest : int; vector : int; kind : ipi_kind }

type t

val create : unit -> t

(* Interrupt request register. *)

val raise_irr : t -> vector:int -> unit
(** Latch a pending interrupt.  Vectors 0-255; [Invalid_argument]
    outside. *)

val ack_highest : t -> int
(** Pop the highest-priority pending vector, or [-1] when none is
    pending.  Allocates nothing. *)

val pending_vectors : t -> int list
(** Every vector currently raised in the IRR, ascending — lets the
    static verifier name what a stale whitelist grant left behind. *)

(* Posted-interrupt descriptor. *)

val pir_post : t -> vector:int -> unit
val pir_sync : t -> unit
(** Move every posted vector into the IRR and clear the PIR, in place
    (what the hardware does at VM entry / notification).  Each vector
    only sets its own IRR bit, so the order is immaterial; allocates
    nothing. *)

val pir_outstanding : t -> bool

(* NMI. *)

val raise_nmi : t -> unit
val take_nmi : t -> bool
(** True if an NMI was pending; clears it. *)

(* Timer. *)

val set_timer_hz : t -> float -> unit
val timer_hz : t -> float

(* Counters (observability). *)

val ipis_sent : t -> int
val note_ipi_sent : t -> unit

val pp_icr : Format.formatter -> icr -> unit
