(** Delta-debugging for crashing traces.

    Reduces a failing {!Trace.Trial_batch} to a minimal reproducer:
    ddmin over the input events, a cross-trial pass dropping every
    input of one slot at once, trial-range truncation, and per-payload
    shrinking, iterated to a fixpoint — every candidate validated by
    an actual replay against the [keep] predicate.

    Slot numbers are never compacted: each slot's machine seed derives
    from its index, so renumbering would change the run the trace
    describes.  Observed exits are dropped up front (replay ignores
    them); a minimal reproducer is the scenario header plus the
    fewest, smallest inputs that still fail. *)

type stats = {
  probes : int;  (** replays spent *)
  original_events : int;
  minimized_events : int;
  original_trials : int;
  minimized_trials : int;
}

val minimize :
  ?keep:(Scenario.report -> bool) ->
  ?preserve_edges:Coverage.t ->
  ?max_probes:int ->
  Trace.t ->
  Trace.t * stats
(** Minimize under [keep] (default: the replay produced at least one
    crash), spending at most
    [max_probes] replays (default 400).  If the failure does not
    reproduce from the trace's inputs alone, the trace is returned
    unreduced (never a non-reproducer).  Minimizing an already-minimal
    trace returns it unchanged — the fixpoint property asserted in
    test_replay.ml.  [Invalid_argument] on soak-shard traces.

    With [preserve_edges], every candidate must additionally still
    cover each given coverage edge when replayed — how the fuzzer
    shrinks corpus entries without losing the edge that earned their
    promotion (pair it with [~keep:(fun _ -> true)]).  Probing with
    edges armed clears this domain's in-progress coverage map. *)
