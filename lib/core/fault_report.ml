type kind =
  | Memory_violation
  | Errant_ipi
  | Msr_violation
  | Io_violation
  | Abort_fault
  | Queue_stall
  | Watchdog_timeout
  | Sanitizer

type t = {
  enclave : int;
  cpu : int;
  tsc : int;
  kind : kind;
  fatal : bool;
  detail : string;
}

let kind_name = function
  | Memory_violation -> "memory-violation"
  | Errant_ipi -> "errant-ipi"
  | Msr_violation -> "msr-violation"
  | Io_violation -> "io-violation"
  | Abort_fault -> "abort"
  | Queue_stall -> "queue-stall"
  | Watchdog_timeout -> "watchdog-timeout"
  | Sanitizer -> "sanitizer"

let pp ppf t =
  Format.fprintf ppf "[tsc %d] enclave %d cpu %d %s%s: %s" t.tsc t.enclave
    t.cpu (kind_name t.kind)
    (if t.fatal then " (fatal)" else " (dropped)")
    t.detail
