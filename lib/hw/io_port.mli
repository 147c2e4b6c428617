(** Legacy I/O port space.

    Co-kernels touch a handful of ports (PIC, PIT, serial); errant
    port I/O can reprogram devices owned by another OS/R.  Covirt's
    I/O protection points the VMCS at a port bitmap so guest port
    accesses trap. *)

val pit_channel0 : int
val serial_com1 : int
val reset_port : int
(** Port 0xCF9 — writing 0x6 here hard-resets the node; the canonical
    catastrophic port fault. *)

module Bitmap : sig
  type t

  val create : unit -> t
  val protect : t -> int -> unit
  val is_protected : t -> int -> bool
  val default_sensitive : unit -> t
  (** PIC, PIT and reset ports. *)
end
