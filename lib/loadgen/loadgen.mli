(** Enclave-dense control-plane load generator.

    Drives the Pisces/Hobbes control paths — create, boot, XEMEM
    export/attach/detach, IPI vector grant/revoke, destroy — against
    hundreds to thousands of enclaves with Zipf-distributed tenant
    traffic, and audits the node afterwards: admission bounds held,
    nothing leaked, the static isolation verifier is clean.

    {b Sharding and determinism.}  The tenant population is split into
    [spec.shards] contiguous shards ({!Covirt_fleet.Fleet.slice}); each
    shard runs an independent node ({!Covirt_hobbes.Hobbes.create_node})
    whose control-plane state never touches another shard's.  The shard
    count is part of the experiment's identity; the [?domains] argument
    of {!run} is placement only — results are byte-identical at any
    domain count, which the dense-node CI job diffs for real.  All
    randomness derives from {!Covirt_sim.Rng.split_seed}: one selection
    stream per shard (Zipf rank draws) and one op stream per tenant,
    so a tenant's behaviour depends only on its own history and the
    order it was scheduled.

    {b Admission.}  Each shard's node runs a {!Covirt.Admission}
    controller: at most [max_in_flight] boots are pending at once
    (boots settle [settle_ops] ops after launch), and per-tenant token
    buckets rate-limit chatty tenants when [refill_cycles > 0].
    Rejected operations consume the op slot, are counted, and leave no
    partial state behind.

    {b Fault plan.}  With [fault = Some f], the shard owning tenant
    [f.tenant] arms a {!Covirt_resilience.Supervisor} over it and, at
    the first op at index [>= f.after_op] where the victim is live,
    injects a wild write outside the victim's partition as an {e extra}
    action — no selection or op-stream draw is consumed, so every
    other tenant sees the exact same schedule as a fault-free run.
    Containment, teardown and relaunch all happen inside that op. *)

module Metrics = Covirt_obs.Metrics

type fault_plan = { tenant : int;  (** global tenant id *) after_op : int }

type spec = {
  tenants : int;
  ops : int;
  zipf_s : float;
  seed : int;
  shards : int;
  config : Covirt.Config.t;
  max_in_flight : int;
  bucket_capacity : int;
  refill_cycles : int;
  settle_ops : int;
  tenant_mib : int;
  fault : fault_plan option;
}

val spec :
  ?tenants:int ->
  ?ops:int ->
  ?zipf_s:float ->
  ?seed:int ->
  ?shards:int ->
  ?config:Covirt.Config.t ->
  ?max_in_flight:int ->
  ?bucket_capacity:int ->
  ?refill_cycles:int ->
  ?settle_ops:int ->
  ?tenant_mib:int ->
  ?fault:fault_plan ->
  unit ->
  spec
(** Defaults: 64 tenants, 512 ops, s=1.1, seed 9, 4 shards,
    {!Covirt.Config.full}, 8 boots in flight, bucket capacity 8,
    refill 0 (rate limiting off), settle after 4 ops, 24 MiB per
    tenant, no fault. *)

type counters = {
  creates : int;
  works : int;
  exports : int;
  attaches : int;
  detaches : int;
  grants : int;
  revokes : int;
  destroys : int;
  op_errors : int;  (** control calls that returned [Error] (e.g. vector
                        exhaustion) — counted, never fatal *)
  rejected_boot_limit : int;
  rejected_rate_limited : int;
  faults_injected : int;
  recoveries : int;
}

type leak_report = {
  tenant_slots : int;  (** tenants this shard owns *)
  live_tenants : int;  (** tenants whose enclave is up at quiesce *)
  live_enclaves : int;  (** Pisces live-registry length *)
  kernel_entries : int;  (** Hobbes kernel-registry length *)
  controller_instances : int;  (** live Covirt instances *)
  live_exports : int;  (** segments whose exporter is live *)
  segments : int;  (** name-service registry length *)
  vectors_outstanding : int;
  vectors_expected : int;  (** 2 per fully-live grant pair *)
  vectors_lost : int;  (** vector-space conservation deficit *)
  unclaimed_acks : int;  (** ack-slot entries never taken *)
  admission_tenants : int;  (** token buckets tracked *)
}

type shard_report = {
  shard : int;
  sc : counters;
  admitted : int;
  peak_in_flight : int;
  leaks : leak_report;
  enclaves_checked : int;
  leaves_checked : int;
  grants_checked : int;
  violations : int;
  ghz : float;
  metrics : Metrics.snapshot;  (** this shard's metric delta *)
}

type report = {
  spec : spec;
  shards : shard_report array;
  merged : Metrics.snapshot;
}

val run : ?domains:int -> spec -> report
(** Execute the spec.  [Invalid_argument] on a non-positive or
    inconsistent spec (e.g. [shards > tenants], [tenant_mib < 18]). *)

(** {2 Derived views} *)

val totals : report -> counters
val admitted : report -> int
val peak_in_flight : report -> int
(** Maximum over shards (each shard runs its own admission
    controller, so the bound is per shard). *)

val violations : report -> int

val ok : report -> bool
(** Leak-free on every shard, zero verifier violations, and no shard's
    peak in-flight boot count exceeded the admission bound. *)

val quantile_ns : report -> p:float -> float
(** Percentile of all op-latency samples (every tenant and op kind
    merged), in nanoseconds. *)

val per_tenant : report -> (int * Metrics.Hist.t) list
(** Per-tenant latency histograms (all op kinds merged), sorted by
    global tenant id.  Tenants that never executed an op are absent. *)

val transcript : report -> string
(** The full deterministic rendering — summary counters, admission
    line, per-tenant latency table, per-shard leak/verifier audit.
    Byte-identical at any domain count; the golden gate and the
    dense-node CI diff capture exactly this. *)

val to_json : report -> string
(** Machine-readable form of {!transcript} (schema
    [covirt-loadgen/1]); per-tenant p50/p95/p99 in nanoseconds. *)
