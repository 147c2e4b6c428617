(** Covirt protection-feature configuration.

    Covirt "implements a configurable and modular approach to resource
    protection that allows runtime configuration of hypervisor
    protection features" — should a feature cost too much for a given
    workload, the operator disables it at enclave initialization.
    These records are those switches, plus the opt-in shadow
    sanitizer; the five presets are the configurations the paper's
    evaluation sweeps.  Observability is not a config knob: it is
    switched on process-wide by [Covirt_obs.enable] (metrics and
    profiler) and [Covirt_obs.Exporter.enable] (span export). *)

open Covirt_hw

type ipi_mode =
  | Ipi_off
  | Ipi_vapic_full  (** trap-and-emulate APIC; incoming interrupts exit *)
  | Ipi_piv  (** posted-interrupt delivery; exitless incoming IPIs *)

type t = {
  enabled : bool;  (** false = boot natively, no hypervisor at all *)
  memory : bool;  (** EPT protection *)
  ipi : ipi_mode;
  msr : bool;
  io : bool;
  max_ept_page : Addr.page_size;
      (** coalescing cap; [Page_1g] normally, [Page_4k] for the
          ablation *)
  sanitize : bool;
      (** arm the shadow isolation sanitizer
          ([Covirt_hw.Sanitize] / [Covirt_analysis.Shadow]) when a
          controller attaches with this config.  Enable-only: a later
          attach with [sanitize = false] does not disarm it.  Zero
          simulated-cycle cost, so the golden transcript stays
          byte-identical. *)
}

val native : t
(** No Covirt: the baseline the paper calls "native". *)

val none : t
(** Hypervisor interposed, no protection features ("no-feature"). *)

val mem : t
val ipi : t
val mem_ipi : t
val full : t
(** memory + IPI + MSR + I/O. *)

val presets : (string * t) list
(** The evaluation sweep, in paper order: native, none, mem, ipi,
    mem+ipi. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
