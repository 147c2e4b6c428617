(** Selfish Detour 1.0.7 — OS noise profiling.

    The benchmark spins reading the TSC; whenever two consecutive
    samples differ by more than a threshold, the gap was a "detour"
    (an interruption: timer tick, kernel housekeeping, SMI).  The
    output is the classic noise scatter: detour duration vs time of
    occurrence, summarised here as a log-bucketed histogram plus the
    raw events.

    Under Covirt the {e sources} of noise are unchanged — the same
    timer ticks at the same rate — but each event's duration can grow
    by the interrupt-delivery exit cost.  Fig. 3's finding is that the
    profiles are nearly indistinguishable; the histogram makes that
    directly comparable. *)

open Covirt_kitten

type detour = { at_us : float; duration_us : float; cause : string }

type result = {
  detours : detour list;
  histogram : Covirt_sim.Histogram.t;
  total_detour_us : float;
  noise_fraction : float;  (** detour time / run time *)
}

val run :
  Kitten.context -> ?duration_s:float -> ?threshold_cycles:int ->
  ?background_mean_s:float -> ?background_cost_cycles:int -> unit -> result
(** Single-core by design (the paper runs it on a one-core
    configuration).  The background-noise knobs default to LWK-grade
    residue (one ~2.5 us event every 200 ms); passing Linux-grade
    values (frequent daemon/softirq activity) turns the same probe
    into the classic general-purpose-OS noise profile. *)

val run_on_cpu :
  Covirt_hw.Machine.t -> Covirt_hw.Cpu.t -> ?duration_s:float ->
  ?threshold_cycles:int -> ?background_mean_s:float ->
  ?background_cost_cycles:int -> unit -> result
(** The same probe on a raw core (e.g. a host-OS core), without a
    Kitten context. *)
