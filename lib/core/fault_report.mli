(** Contained-fault reports.

    When the hypervisor terminates an enclave (or silently drops an
    errant operation) it produces a report for the master control
    process — the paper's debugging-trace capability.  Reports are the
    observable artifact fault-injection tests assert on. *)

type kind =
  | Memory_violation
  | Errant_ipi
  | Msr_violation
  | Io_violation
  | Abort_fault
  | Queue_stall
      (** a core's command ring stayed full even after an NMI drain —
          the controller could not deliver a synchronization command *)
  | Watchdog_timeout
      (** the enclave showed no VM exits and no control-channel
          activity within the watchdog deadline (wedged, not crashed) *)
  | Sanitizer
      (** the shadow isolation sanitizer flagged an ownership-boundary
          crossing ([Covirt_hw.Sanitize]); always non-fatal — detection
          is the point, recovery policy is unchanged *)

type t = {
  enclave : int;
  cpu : int;
  tsc : int;
  kind : kind;
  fatal : bool;  (** true when the enclave was terminated *)
  detail : string;  (** human-readable cause *)
}

val kind_name : kind -> string
(** Stable short name of the report kind (["memory-violation"], ...). *)

val pp : Format.formatter -> t -> unit
(** Full rendering. *)
