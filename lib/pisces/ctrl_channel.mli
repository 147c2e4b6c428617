(** The host/enclave control channel.

    A pair of in-memory message queues living in a shared page that is
    part of the boot-parameter structure.  Sends charge the executing
    core the channel-message cost; delivery is by explicit drain (the
    receiving kernel polls it from its message loop) or, for the
    synchronous host-side operations, by the framework running the
    enclave's registered handler inline.

    Ack/Nack replies are kept in a per-sequence reply slot rather than
    the FIFO, so {!take_ack} is O(1) whatever the channel depth, and a
    batched drain ({!drain_host_side_n}) never has to step over
    replies to reach serviceable traffic.  Per-enclave FIFO order of
    the non-reply messages is preserved exactly. *)

open Covirt_hw

type t

val create : unit -> t

val send_to_enclave : Machine.t -> host_cpu:Cpu.t -> t ->
  Message.host_to_enclave -> unit

val send_to_host : Machine.t -> enclave_cpu:Cpu.t -> t ->
  Message.enclave_to_host -> unit

val drain_enclave_side : t -> Message.host_to_enclave list
(** All pending host-to-enclave messages, in order. *)

val drain_host_side : t -> Message.enclave_to_host list
(** All pending non-reply enclave-to-host messages, in order.
    Ack/Nack replies never appear here; they are consumed through
    {!take_ack}. *)

val drain_host_side_n : t -> max:int -> Message.enclave_to_host list
(** Like {!drain_host_side} but at most [max] messages — the batched
    poll the dense control plane uses to bound per-poll work while
    keeping FIFO order.  [Invalid_argument] on negative [max]. *)

val take_ack : t -> seq:int -> (unit, string) result
(** Remove the Ack/Nack for [seq] from the reply slot; an error if the
    reply is a [Nack] or no reply is pending (the co-kernel never
    answered — a protocol bug).  O(1), independent of how much other
    traffic is pending. *)

val pending_acks : t -> int
(** Unclaimed Ack/Nack replies.  A quiesced enclave should have none;
    a monotonic count here is a leaked-transaction bug. *)

val enclave_messages_sent : t -> int
(** Count of enclave-to-host sends only — any traffic here (acks,
    syscalls, console, heartbeats) is a sign of life from the
    co-kernel, which is what the watchdog monitors. *)
