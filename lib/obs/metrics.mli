(** Typed metrics registry: counters, gauges, and log-scale latency
    histograms, labeled per enclave × CPU × dimension.

    The registry is ambient — instrumentation sites anywhere in the
    stack reach it without threading a handle — but {e per-domain}:
    families and cells are pure descriptors, and each record resolves
    the mutable state through Domain-local storage.  A fleet shard
    (see [Covirt_fleet]) therefore only ever mutates its own domain's
    tables; per-shard deltas are joined afterwards with {!merge}.
    Every hot-path site guards on {!on} — a single [bool ref] read and
    branch — so a disabled registry costs one predictable branch per
    site and records nothing.

    Recording never charges simulated cycles: metrics are measurement
    apparatus, not part of the machine model, so enabling them leaves
    simulation results (and the golden transcript) bit-identical.

    Typical instrumentation shape:
    {[
      let hits = Metrics.(unlabeled (counter "tlb.lookup.hit"))

      let lookup t addr =
        ...
        if !Metrics.on then Metrics.add hits 1;
        ...
    ]}

    Families are interned by name: calling {!counter} twice with the same
    name returns the same family, so handles can be created at module
    initialisation time and survive {!reset}. *)

(** {1 Enabling} *)

val on : bool ref
(** Master switch.  Instrumentation sites must check [!on] before touching
    any cell; {!add}/{!observe}/{!set} themselves do not re-check it.
    Prefer {!enable}/{!disable} over writing the ref directly.  The
    switch is shared across domains: flip it only before spawning a
    fleet or after joining it. *)

val enable : unit -> unit
(** Turn recording on. *)

val disable : unit -> unit
(** Turn recording off.  Existing values are kept (use {!reset} to zero). *)

val enabled : unit -> bool
(** [enabled ()] is [!on]. *)

(** {1 Labels} *)

type label = {
  enclave : int;  (** owning enclave id, or [-1] when not enclave-scoped *)
  cpu : int;  (** APIC / core id, or [-1] when not CPU-scoped *)
  dim : string;
      (** free-form dimension: exit-reason name, operation kind, ... *)
}
(** A metric series is identified by family name plus one [label]. *)

val no_label : label
(** [{ enclave = -1; cpu = -1; dim = "" }] — the label of unlabeled
    series. *)

(** {1 Families and cells} *)

type family
(** A named metric with a fixed kind and a set of labeled series. *)

type cell
(** One series of a family: the handle instrumentation sites record
    through.  A cell is a pure (family, label) descriptor — recording
    resolves it in the {e current} domain's registry — so cells are
    cheap to hold, safe to share across domains, and survive
    {!reset}. *)

val counter : ?max_series:int -> string -> family
(** [counter name] interns a monotonically increasing integer family.
    [max_series] bounds label cardinality (default [512]): once the bound
    is reached, {!cell} routes further labels to a shared overflow series
    and bumps {!dropped_series}, so a label-cardinality bug cannot grow
    memory without bound.  Raises [Invalid_argument] if [name] is already
    interned with a different kind — kind consistency is checked
    process-wide, not per-domain. *)

val gauge : ?max_series:int -> string -> family
(** [gauge name] interns a last-value-wins float family.  See {!counter}
    for [max_series]. *)

val histogram : ?max_series:int -> string -> family
(** [histogram name] interns a log-scale (geometric-bucket) distribution
    family for latency-like values.  Relative quantile error is bounded
    by the bucket growth factor ({!Hist.base}); the maximum is tracked
    exactly.  See {!counter} for [max_series]. *)

val cell : family -> label -> cell
(** [cell family label] interns and returns the series for [label],
    creating it on first use.  Returns the family's overflow series when
    the cardinality bound is hit.  Amortised O(1); fine on warm paths,
    though static sites should intern once at module init. *)

val unlabeled : family -> cell
(** [unlabeled f] is [cell f no_label]. *)

val dropped_series : family -> int
(** Number of distinct labels that were routed to the overflow series
    because the family hit its cardinality bound, in the current
    domain. *)

val series_count : family -> int
(** Number of live (interned) series in the current domain, excluding
    the overflow series. *)

(** {1 Recording}

    None of these check {!on}; the caller's guard is the single
    disabled-path branch. *)

val add : cell -> int -> unit
(** [add c n] increments a counter cell by [n].  No-op on other kinds. *)

val set : cell -> float -> unit
(** [set c v] overwrites a gauge cell.  No-op on other kinds. *)

val observe : cell -> float -> unit
(** [observe c v] records one sample into a histogram cell.  Values below
    [1.0] (including negatives) land in the first bucket.  No-op on other
    kinds. *)

(** {1 Snapshots}

    Snapshots are immutable copies of the registry used for reporting and
    for before/after diffing around a workload (the bench [--trace-out]
    summary and [Covirt_resilience.Soak] consume these). *)

module Hist : sig
  type t = {
    base : float;  (** geometric bucket growth factor *)
    counts : int array;  (** per-bucket sample counts *)
    n : int;  (** total samples *)
    sum : float;  (** sum of samples *)
    max_v : float;  (** exact maximum sample, [0.] when empty *)
  }
  (** Immutable histogram snapshot. *)

  val quantile : t -> p:float -> float
  (** [quantile h ~p] estimates the [p]-th percentile ([0. <= p <= 100.])
      as the geometric midpoint of the bucket holding that rank; the
      relative error is bounded by [base].  [p >= 100.] returns the exact
      maximum.  Returns [0.] on an empty histogram. *)

  val merge : t -> t -> t
  (** Bucket-wise sum of two snapshots (same [base] assumed). *)

  val is_zero : t -> bool
  (** No samples recorded. *)
end

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Hist.t
      (** Snapshot of one series' value, tagged by family kind. *)

type snapshot = (string * (label * value) list) list
(** Family name to labeled series, both in first-interned order. *)

val empty : snapshot
(** The snapshot of a registry that recorded nothing: [[]].  The unit
    of {!merge}. *)

val snapshot : unit -> snapshot
(** Deep copy of every live series in the {e current} domain's registry
    (including overflow series, under a reserved label with
    [dim = "(overflow)"]). *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Series-wise difference ([after] - [before]) for counters, gauges
    and histograms, so [diff ~before:s ~after:s] {!is_zero} always
    holds.  A diffed histogram's [max_v] is the [after] maximum (the
    window max is not recoverable from two endpoints).  Series absent
    from [before] pass through unchanged; series absent from [after]
    are dropped. *)

val is_zero : snapshot -> bool
(** True when every counter is [0], every histogram empty, and every
    gauge [0.] — e.g. [is_zero (diff ~before:s ~after:s)]. *)

val merge : snapshot -> snapshot -> snapshot
(** Join two snapshots (typically per-shard {!diff} deltas from a
    fleet run): counters sum, histograms merge bucket-wise, gauges are
    last-value-wins (the right operand, i.e. the later shard in a left
    fold).  The result is canonical — all-zero series and empty
    families are pruned, families sorted by name and series by label —
    so a left fold over shard order is a pure function of the shard
    values, independent of how shards were placed on domains.
    [merge empty s] and [merge s empty] both canonicalise [s]. *)

val find : snapshot -> string -> (label * value) list
(** Series of one family, [[]] if the family is absent. *)

val total_counter : snapshot -> string -> int
(** Sum of a counter family across all labels, [0] if absent. *)

val merged_hist : snapshot -> string -> dim:string -> Hist.t option
(** Merge a histogram family's series whose label [dim] matches,
    across all enclaves and CPUs.  [None] if no series matches. *)

val dims : snapshot -> string -> string list
(** Distinct label [dim]s of a family, in first-interned order. *)

val pp : Format.formatter -> snapshot -> unit
(** Debug rendering, one series per line. *)

(** {1 Lifecycle} *)

val reset : unit -> unit
(** Zero every cell of the current domain's registry in place and clear
    its per-family drop counts.  Handles (families and cells) held by
    instrumentation sites stay valid. *)
