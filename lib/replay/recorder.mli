(** The trace recorder.

    Subscribes to the two nondeterministic boundaries of a simulated
    run — VM exit dispatch ({!Covirt_hw.Vmx.exit_entry}) and fault
    application ({!Covirt_resilience.Fault_injector.applied}) — and
    keeps them in a Domain-local ring of {!Trace.event}s.  Per-domain
    state means every fleet shard records its own trial independently.
    Arming obeys the {!Covirt_obs.Probe} contract: a run with the
    recorder armed is byte-identical to the same run with it off (the
    golden gate in test_replay.ml). *)

open Covirt_hw
module Fault_injector = Covirt_resilience.Fault_injector

(** {1 Payload conversions}

    Total, inverse pairs between the simulator's types and the
    self-contained trace payloads.  Kept here (not in {!Trace}) so the
    codec has no simulator dependencies: when
    {!Covirt_hw.Vmcs.exit_reason} grows a constructor, this module
    fails to compile instead of the format drifting. *)

val load_exit : Vmcs.t -> Trace.exit_payload -> unit
(** Fill the VMCS's exit record from a trace payload, ready for
    {!Covirt_hw.Vmx.deliver_exit}: the inverse of what the recorder
    keeps of an exit. *)

val to_fault : Trace.fault_payload -> Fault_injector.fault

(** {1 Recording} *)

val arm : ?capacity:int -> unit -> unit
(** Start recording in the calling domain: reset the ring and slot to
    empty/0 and arm the probe bus.  Idempotent while already armed. *)

val disarm : unit -> unit
(** Stop recording in the calling domain, release the ring and
    disarm the probe bus. *)

val recording : unit -> bool
(** Whether the calling domain is recording. *)

val set_slot : int -> unit
(** Set the trial slot stamped on subsequently recorded events.  The
    scenario runner calls this at the top of each trial. *)

val note : Trace.event -> unit
(** Append an event directly (used by the replayer to re-record the
    inputs it applies, so a replay's capture is comparable to the
    original).  No-op when not recording. *)

val capture : unit -> Trace.event list * int
(** Drain the ring: the recorded events in order plus the count of
    events evicted by overflow ([0] means complete).  Resets the ring
    but stays armed. *)
