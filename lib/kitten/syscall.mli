(** Kitten's system-call table.

    An LWK implements the performance-critical calls locally and
    forwards everything heavyweight to the general-purpose OS/R over
    the control channel — the "offload heavy-weight operations" half
    of the co-kernel bargain.  Numbers follow the Linux x86-64 ABI for
    the calls we model (Kitten is "partially derived from Linux" and
    keeps ABI compatibility). *)

type disposition =
  | Local  (** handled inside the LWK, no OS noise *)
  | Forwarded  (** proxied to the host OS/R *)
  | Unsupported

val nr_read : int
val nr_write : int
val nr_mmap : int
val nr_brk : int
val nr_getpid : int
val nr_gettimeofday : int
val nr_clock_gettime : int

val disposition : int -> disposition
(** How Kitten treats a syscall number. *)

val name : int -> string
val local_cost_cycles : int
(** Cycles charged for a locally handled call (an LWK syscall is a
    couple hundred cycles). *)
