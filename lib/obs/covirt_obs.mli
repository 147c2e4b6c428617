(** Observability for the Covirt stack: metrics, cycle attribution, and
    Chrome-trace export.

    This is the library's public surface.  The three subsystems share a
    design contract:

    - {b zero-cost when disabled}: every instrumentation site in the hot
      path guards on one [bool ref] ({!Metrics.on} or {!Exporter.on}),
      so a build with observability off pays a single predictable branch
      per site (enforced by the quick-bench 25% gate);
    - {b measurement, not model}: recording never charges simulated
      cycles, so enabling observability leaves simulation results — and
      the golden transcript — bit-identical;
    - {b process-global}: instrumentation sites anywhere in the layer
      stack reach the registry without threading handles.

    Wiring: callers switch recording on with {!enable} (metrics and
    profiler) and {!Exporter.enable} (span export); [covirt-ctl stats] /
    [--trace-out] do so and expose the results on the CLI. *)

module Metrics = Metrics
module Profiler = Profiler
module Span = Span
module Exporter = Exporter

val enable : unit -> unit
(** Turn on metrics + profiler recording (not span export). *)

val disable : unit -> unit
(** Turn off both metrics and span export.  Recorded data is kept. *)

val enabled : unit -> bool
(** True when metrics recording is on. *)

val reset : unit -> unit
(** Zero metrics, drop profiler attribution, clear the span buffer. *)

(** VM-exit recording hook, shared by every exit-delivery site. *)
module Vmexit : sig
  val record :
    enclave:int -> cpu:int -> reason:string -> t0:int -> t1:int -> unit
  (** [record ~enclave ~cpu ~reason ~t0 ~t1] attributes one delivered
      exit whose handling spanned simulated cycles [t0..t1]: bumps the
      per-label ["vmexit.count"] counter and ["vmexit.cycles"]
      histogram, feeds the {!Profiler}, and (when export is on) emits a
      complete span on the (enclave, cpu) track.  Safe to call
      unconditionally — it carries its own enabled checks — but the
      dispatch site guards anyway to keep the disabled path to one
      branch. *)
end
