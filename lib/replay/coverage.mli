(** Per-run coverage maps — the fuzzer's guidance signal.

    A coverage map is a fixed-size bitset over the behaviour edges a
    replayed trial can exercise:

    - (exit-reason arm {e x} handler outcome) for every delivered VM
      exit — {!Covirt_hw.Vmcs.exit_reason_arms} arms times three
      outcomes (resume / skip / kill);
    - the EPT walk-branch classes (walk-cache hit/fill, uncached walk,
      PT-slot hit/fill, the two violation reasons);
    - the injected fault classes (dense index in declaration order);
    - the sanitizer violation kinds;
    - planted and detected corruption classes, trial outcomes, the
      crash oracle, XEMEM attach/detach success/failure, enclave
      spawns and the soak-scenario marker.

    Collection reuses the recorder's zero-cost tap contract: each hw
    site pays one branch when disarmed, the tap bodies are a
    Domain-local bit store (no simulated cycles, no randomness, no
    allocation), and arming leaves every transcript byte-identical —
    pinned by test_coverage.ml against the golden translation capture.

    Maps are immutable; the collection state is Domain-local so every
    fleet shard gathers its own trial's coverage independently
    (arming is reference-counted across domains, the recorder
    pattern). *)

type t
(** An immutable coverage snapshot.  Structural ([=]) and {!equal}
    comparison agree, so fuzz results carrying maps stay comparable
    across domains. *)

val total : int
(** Number of edge bits in the map (the fixed map size). *)

val empty : t
(** The all-zeros map. *)

val equal : t -> t -> bool

val mem : t -> int -> bool
(** Is edge [i] set?  [i] must be in [0 .. total - 1]. *)

val count : t -> int
(** Population count: how many distinct edges the run exercised. *)

val union : t -> t -> t

val new_edges : t -> base:t -> int
(** How many edges of the first map are not in [base] — the promotion
    signal ([> 0] means the run found something the corpus hasn't). *)

val subset : t -> of_:t -> bool
(** Is every edge of the first map present in [of_]?  The minimizer's
    preserve-edges check is [subset edges ~of_:candidate]. *)

val to_bytes : t -> string
(** The raw map bytes (length [total/8] rounded up) — what corpus
    entries embed. *)

val of_bytes : string -> (t, string) result
(** Total inverse of {!to_bytes}; rejects any other length, so a
    layout change invalidates stale corpus entries loudly. *)

val edge_name : int -> string
(** Stable human name for edge [i], e.g. ["exit:hlt/resume"],
    ["ept:walk-hit"], ["planted:stale-grant"].  [Invalid_argument]
    outside [0 .. total - 1]. *)

val pp : Format.formatter -> t -> unit
(** ["%d/%d edges:"] followed by the set edges' names. *)

(** {1 Collection}

    Domain-local, reference-counted across domains like
    {!Recorder.arm}. *)

val collecting : unit -> bool
(** Whether this domain is collecting. *)

val arm : unit -> unit
(** Start collecting in this domain with a cleared map; flips the hw
    [cov_on] switches when this is the first domain to arm.  No-op if
    already collecting. *)

val disarm : unit -> unit
(** Stop collecting and clear the map; drops the hw switches when this
    was the last armed domain. *)

val capture : unit -> t
(** Snapshot this domain's map and clear it (collection continues) —
    call once per mutant/trial to get its per-run map. *)

(** {1 Scenario-layer hits}

    Edges the hw taps cannot see — trial verdicts and the synthetic
    input surface — reported by {!Scenario}/{!Replayer}.  Each is a
    no-op unless this domain is collecting. *)

val hit_planted : Trace.corruption -> unit
val hit_detected : Trace.corruption -> unit
val hit_outcome : [ `Survived | `Node_down | `Collateral ] -> unit

val hit_crash : unit -> unit
(** The crash oracle fired (non-simulated exception escaped). *)

val hit_xemem : attach:bool -> ok:bool -> unit
(** An [Xemem_op] input was applied and succeeded/failed. *)

val hit_spawn : ok:bool -> unit
(** A [Spawn] input launched an enclave ([ok]) or found no free core
    ([not ok]). *)

val hit_soak : unit -> unit
(** The run replayed a soak-shard scenario. *)
