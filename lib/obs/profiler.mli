(** Simulated-cycle attribution: where did the guest's time go?

    The profiler answers the question behind the paper's figures — which
    VM-exit reasons eat how many cycles, and during which phase of the
    guest's life (boot, measurement loop, teardown, one bench experiment
    per phase, ...).  It accumulates the per-exit cycle deltas recorded
    by the exit-dispatch instrumentation (see {!Covirt_obs.Vmexit}) into
    two attribution axes:

    - per exit reason: exits and cycles for ["hlt"], ["icr-write"], ...
    - per phase: exits and cycles attributed to the current {!set_phase}
      label at the time each exit retired.

    Like {!Metrics}, the profiler is ambient but per-domain (each fleet
    shard attributes into its own domain's tables), gated by the same
    single-branch discipline, and never charges simulated cycles. *)

val set_phase : string -> unit
(** [set_phase name] labels all subsequent exits with [name] until the
    next call.  Cheap (one ref write); safe to call when disabled. *)

val record : reason:string -> cycles:int -> unit
(** [record ~reason ~cycles] attributes one exit.  Called by the exit
    dispatch hook; callers must guard on {!Metrics.on}. *)

type row = { key : string; exits : int; cycles : int }
(** One attribution line: [key] is an exit-reason name or a phase
    label. *)

val attribution_table : unit -> string
(** Rendered per-reason table: exits, total cycles, mean cycles/exit,
    and the share of all attributed cycles. *)

val phase_table : unit -> string
(** Rendered per-phase table with the same columns. *)

val reset : unit -> unit
(** Drop all attribution (the current phase label is kept). *)
