(** Control-plane admission: bounded in-flight boots and per-tenant
    token-bucket rate limits.

    A dense co-kernel node serves thousands of tenants; the master
    control process must bound how much booting it has in flight (a
    boot pins host-side work and enclave resources until the co-kernel
    settles) and must stop one chatty tenant from starving the rest of
    the control channel.  Both policies live here, as a pure
    deterministic state machine:

    - {b in-flight boot bound}: at most [max_in_flight] boots between
      {!admit_boot} and {!settle}.  Excess requests get a typed
      {!reject} — the caller keeps no partial state, so a rejected
      boot is invisible to the isolation verifier.
    - {b per-tenant token buckets}: each tenant holds up to
      [bucket_capacity] tokens, regaining one every [refill_cycles]
      simulated cycles of {e its own} clock.  Every admitted operation
      spends one token.  [refill_cycles = 0] disables rate limiting.

    Clocks are supplied by the caller ([~now], in simulated cycles).
    Pass each tenant's own core clock: refill arithmetic then depends
    only on that tenant's history, so a fault (and recovery backoff)
    in one tenant cannot shift admission decisions — and therefore
    latencies — of its neighbours.  All state is integer; equal call
    sequences yield equal decisions, bit for bit.

    Buckets are per-tenant state, one per tenant ever admitted, so the
    table is bounded by the tenant population (loadgen's leak
    audit asserts that bound). *)

type reject =
  | Boot_limit of { in_flight : int; limit : int }
      (** the in-flight boot bound is saturated *)
  | Rate_limited of { tenant : int; tokens_milli : int }
      (** the tenant's bucket is empty; [tokens_milli] is the residual
          level in thousandths of a token *)

type token
(** Proof of an admitted boot; hand it back with {!settle}. *)

type t

val create :
  ?bucket_capacity:int -> ?refill_cycles:int -> max_in_flight:int -> unit -> t
(** [bucket_capacity] defaults to 8 tokens; [refill_cycles] to 0
    (rate limiting off).  [Invalid_argument] on non-positive
    [max_in_flight]/[bucket_capacity] or negative [refill_cycles]. *)

val admit_op : t -> tenant:int -> now:int -> (unit, reject) result
(** Admit one non-boot control operation for [tenant], spending a
    token.  [now] is the tenant's clock in cycles. *)

val admit_boot : t -> tenant:int -> now:int -> (token, reject) result
(** Admit a boot: checks the global in-flight bound first, then the
    tenant's bucket.  On success the boot counts against the bound
    until the returned token is {!settle}d. *)

val settle : t -> token -> unit
(** The boot completed (or its enclave died): release its in-flight
    slot.  Idempotent per token. *)

(** {2 Introspection} *)

val in_flight : t -> int
val peak_in_flight : t -> int
(** High-water mark of concurrent unsettled boots — test-asserted to
    never exceed {!max_in_flight}. *)

val max_in_flight : t -> int
val admitted : t -> int
val rejected_boot_limit : t -> int
val rejected_rate_limited : t -> int

val tracked_tenants : t -> int
(** Live bucket count (leak observability). *)
