(** The scenario runner: executes trace scenarios in record or replay
    mode with the oracle battery attached.

    A {e trial batch} is the campaign-shaped stack: per trial, a fresh
    2-zone machine (seed split from the batch seed by slot), an
    attacker enclave on core 1 / zone 0 and a victim on core 3 /
    zone 1, one fault injected into the attacker.  Record mode draws
    the fault from the seeded injector and captures the run; replay
    mode re-executes a trace by injecting its recorded inputs instead
    of drawing — and re-captures, so bit-identity is checkable
    ({!Replayer.verify}).

    Oracles, all zero-cost for the simulated run:
    - {b crash}: any exception escaping a trial other than the
      simulated outcomes ({!Covirt_hw.Machine.Node_panic},
      {!Covirt_hw.Vmx.Vm_terminated});
    - {b sanitizer}: the shadow ownership sanitizer's violation-count
      delta (replay always arms it);
    - {b verifier}: a static EPT/grant sweep after any trial that
      planted a corruption, with typed per-class detection. *)

module Fault_injector = Covirt_resilience.Fault_injector

type trial_outcome = Survived | Node_down | Collateral

val outcome_name : trial_outcome -> string

type trial_result = {
  slot : int;
  outcome : trial_outcome;
  crash : string option;  (** crash-oracle text, [None] if clean *)
  sanitizer_delta : int;
  verifier_violations : int;
  planted : Trace.corruption list;  (** classes this trial applied *)
  detected : Trace.corruption list;  (** planted classes an oracle saw *)
}

type report = {
  trace : Trace.t;  (** the (re-)captured trace *)
  results : trial_result list;
  crashes : (int * string) list;  (** (slot, exception) pairs *)
  planted : Trace.corruption list;
  detected : Trace.corruption list;
  sanitizer_flags : int;  (** summed sanitizer deltas *)
}

val simulated_exn : exn -> bool
(** Whether an exception is a legitimate simulated outcome rather
    than a crash. *)

val record :
  ?schedule:Fault_injector.t ->
  ?sanitize:bool ->
  config:string ->
  seed:int ->
  trials:int ->
  unit ->
  report
(** Run a trial batch with the recorder armed and return its report;
    [report.trace] is the captured {!Trace.Trial_batch}.  Without
    [schedule] each trial draws one fault from an injector seeded with
    the trial seed; with it, the schedule's due faults are injected
    instead (its JSON rides in the trace).  [sanitize] (default true)
    arms the shadow oracle. *)

val replay : Trace.t -> report
(** Re-execute a {!Trace.Trial_batch}: per slot, apply the trace's
    input events in order — faults through the injector, synthetic
    exits through {!Covirt_hw.Vmx.deliver_exit} on the attacker's boot
    core, corruptions through the analyze-style planting — while
    re-capturing, so [report.trace] is comparable to the input.
    [Invalid_argument] on a {!Trace.Soak_shard} (those replay through
    {!Replayer}). *)
