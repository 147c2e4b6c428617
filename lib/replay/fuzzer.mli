(** Coverage-guided trace-mutation fuzzing with sanitizer oracles,
    sharded across fleet domains.

    One fuzz trial per shard: pick a mutation base (an explicit
    [base], a seeded {!Corpus} entry, or a freshly recorded two-trial
    batch under a seed-chosen config), apply 1–[mutations] seeded
    mutation operators, replay the mutant under the full oracle
    battery (crash, shadow sanitizer, static verifier, sampled
    replay-fixed-point), and delta-debug any crash to a minimal
    reproducer in-shard.

    With [coverage] each replay runs under the {!Coverage} taps.  A
    non-crashing mutant whose map holds an edge the accumulated
    coverage lacks is {e promoted}: pre-shrunk in-shard under
    [Minimizer ~preserve_edges], then admitted by a pure left fold in
    shard-index order against the corpus baseline — so the promoted
    set, like every other field of the result, is byte-identical for
    any [domains] (the fleet contract, tested at domains 1/2/7).

    Every decision derives from [Rng.split_seed] of the shard seed
    and the merge is a pure fold in shard order. *)

type finding = {
  digest : string;  (** {!Trace.digest} of the minimized trace *)
  shard : int;  (** fuzz trial that found it *)
  slot : int;
  exn : string;  (** the escaping exception's text *)
  trace : Trace.t;  (** minimized reproducer *)
  probes : int;  (** replays the minimizer spent *)
}

type result = {
  trials : int;
  seed : int;
  mutations : int;
  crashes : finding list;  (** unique by minimized digest *)
  planted : (Trace.corruption * int) list;
  detected : (Trace.corruption * int) list;
  escapes : (Trace.corruption * int) list;
      (** planted corruptions no oracle flagged — each one is a
          finding about the oracle set *)
  divergences : int;
      (** sampled replay-fixed-point failures; nonzero means a
          determinism bug *)
  execs : int;  (** total replays across shards, minimizer included *)
  execs_per_shard : (int * int) list;
      (** [(shard, execs)] for every shard — what the [--seconds]
          summary reports *)
  coverage : Coverage.t option;
      (** the accumulated map (corpus baseline included) when guided *)
  new_edges : int;  (** edges beyond the supplied corpus baseline *)
  promoted : Corpus.entry list;
      (** mutants that earned a corpus slot, in shard order — the
          caller persists them with {!Corpus.save} *)
  corpus_size : int;  (** supplied entries + promoted *)
}

val fuzz_configs : string list
(** Configs the fuzzer samples (all presets but native, which has no
    controller instances to corrupt). *)

val run :
  ?trials:int ->
  ?seed:int ->
  ?mutations:int ->
  ?domains:int ->
  ?base:Trace.t ->
  ?corpus:Corpus.entry list ->
  ?coverage:bool ->
  ?minimize_probes:int ->
  unit ->
  result
(** Fuzz [trials] shards (default 100) from [seed] (default 2026),
    each applying 1–[mutations] (default 3) operators.  [base]
    replaces the per-shard mutation base with a fixed trace; otherwise
    shards draw seeded bases from [corpus] (default empty — each shard
    records a fresh two-trial batch).  Soak-shard bases mutate their
    scenario parameters rather than events.  [coverage] (default
    false) arms the coverage taps and fills the guidance fields of the
    result.  [domains] is placement only.  The global sanitizer
    request is saved and restored around the fleet. *)

val table : result -> Covirt_sim.Table.t
(** Summary: trials, unique crashes, divergences, execs (total and
    per-shard spread), the coverage block when guided (edges found,
    new edges, corpus size, new-edge rate), planted/detected per
    corruption class, one row per crash. *)
