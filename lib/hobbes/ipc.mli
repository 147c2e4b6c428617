(** Cross-enclave IPC channels.

    The Hobbes composition primitive: a shared-memory ring exported
    over XEMEM plus a doorbell IPI vector in each direction.  This is
    the "zero overhead IPC" property Covirt preserves: data moves
    through the shared mapping with no hypervisor involvement, and
    only the doorbell transmission crosses the (whitelisted) ICR trap. *)

open Covirt_hw
open Covirt_pisces
open Covirt_kitten

type channel = {
  name : string;
  producer : Enclave.t;
  consumer : Enclave.t;
  ring : Region.t;  (** the shared buffer (owned by the producer) *)
  doorbell : int;  (** vector the producer rings on the consumer's core *)
  mutable sends : int;
  mutable receipts : int;
}

val connect :
  Hobbes.t ->
  producer:Enclave.t * Kitten.t ->
  consumer:Enclave.t * Kitten.t ->
  name:string ->
  ring_bytes:int ->
  (channel, string) result
(** Allocate the ring from the producer's heap, export/attach it via
    XEMEM, grant the doorbell vector, and register the consumer's IRQ
    handler. *)

val send : channel -> Kitten.context -> words:int -> unit
(** Producer side: write [words] 8-byte slots into the ring (at most
    the ring's length; one granular store per slot through the full
    translation path) and ring the doorbell. *)

val receipts : channel -> int
(** Messages observed by the consumer's interrupt handler. *)

val pp : Format.formatter -> channel -> unit
