(** Model-specific registers.

    A sparse MSR file plus a protection bitmap.  With Covirt's MSR
    protection enabled, the VMCS points at a bitmap; guest accesses to
    protected MSRs cause VM exits (and, for the sensitive set, enclave
    termination).  Well-known MSR numbers used by the co-kernel stack
    are exported as constants. *)

type t

val ia32_apic_base : int
val ia32_efer : int
val ia32_pat : int
val ia32_smm_monitor_ctl : int
(** Writing this from a co-kernel is the canonical "sensitive MSR"
    fault in our injection suite. *)

val create : unit -> t
(** Pre-populates architectural MSRs with sane reset values. *)

val read : t -> int -> int64
(** Unknown MSRs read as zero (the simulated machine does not #GP). *)

val write : t -> int -> int64 -> unit

module Bitmap : sig
  type t
  (** The set of MSR numbers whose access traps. *)

  val create : unit -> t
  val protect : t -> int -> unit
  val unprotect : t -> int -> unit
  val is_protected : t -> int -> bool
  val default_sensitive : unit -> t
  (** The MSRs Covirt always traps: APIC base, EFER, SMM monitor
      control, TSC deadline. *)
end
