(** Record/replay of VM-exit streams and coverage-guided
    trace-mutation fuzzing ([covirt.replay]).

    The robustness loop the paper's evaluation leans on, closed: every
    nondeterministic input of a simulated run — seeds, the
    fault-injector schedule, each fault as applied — is captured into
    a compact versioned binary {!Trace}, which replays bit-identically
    (verified by re-capturing) and doubles as fuzz substrate:

    - {!Trace} — the codec: the {e only} module that touches trace
      bytes (covirt-lint enforces the confinement);
    - {!Coverage} — the per-run coverage bitset (exit-arm x outcome,
      EPT walk classes, fault/violation classes, oracle verdicts),
      collected from the {!Covirt_obs.Probe} bus (golden transcripts
      stay byte-identical armed);
    - {!Recorder} — Domain-local recording of VM-exit dispatch and
      fault injection from the same bus;
    - {!Scenario} — record/replay execution of trial batches with the
      oracle battery (crash, shadow sanitizer, static verifier);
    - {!Replayer} — replay + re-capture + byte comparison, including
      soak-shard traces;
    - {!Corpus} — the on-disk corpus of coverage-earning traces the
      fuzzer promotes into and seeds its mutation bases from;
    - {!Minimizer} — ddmin + cross-trial + payload shrinking of
      crashing traces (optionally preserving covering edges) to
      checked-in minimal reproducers;
    - {!Fuzzer} — seeded, coverage-guided trace mutation sharded
      across fleet domains, byte-identical at any domain count.

    Surfaced as [covirt-ctl record / replay / fuzz]. *)

module Trace = Trace
module Coverage = Coverage
module Recorder = Recorder
module Scenario = Scenario
module Replayer = Replayer
module Corpus = Corpus
module Minimizer = Minimizer
module Fuzzer = Fuzzer
