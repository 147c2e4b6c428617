(** The controller-to-hypervisor command queue.

    "The Covirt hypervisor is managed via a simple command queue ...
    Commands are fixed-size messages containing update notifications
    directing the hypervisor to synchronize part of its local state."
    The queue is bounded (commands are fixed-size slots in a shared
    page) and signalled with NMI IPIs so the IRQ vector space stays
    identity-mapped.  Commands carry no configuration data — the
    controller already updated the hardware structures; the hypervisor
    only activates/invalidates. *)

open Covirt_hw

type command =
  | Flush_tlb of Region.t  (** invalidate translations for a range *)
  | Flush_tlb_all
  | Reload_vmcs  (** re-serialize the virtualization context *)
  | Whitelist_updated  (** drop any cached whitelist decisions *)
  | Halt_core

type queue

val slots : int
(** Queue capacity: 64 fixed-size slots. *)

val create_queue : unit -> queue

val enqueue : queue -> command -> (unit, string) result
(** Fails when the ring is full (the controller must drain-wait —
    surfacing this in the type keeps the protocol honest). *)

val dequeue : queue -> command option
val pending : queue -> int
val enqueued_total : queue -> int
val pp_command : Format.formatter -> command -> unit
