(** Shadow ownership sanitizer — the hw half of [covirt.analysis].

    An opt-in runtime mode (ASan-style) that mirrors every [Phys_mem]
    ownership event, [Ept] entry write, TLB install and translated
    access into a compact shadow ownership map, and flags the instant
    an access crosses an ownership boundary or lands in a freed
    region.

    Contract (the same one [lib/obs] keeps): each instrumented site
    tests the single [!on] branch and does nothing else when the mode
    is off; enabling it never charges simulated cycles and leaves the
    golden transcript byte-identical ([test/test_analysis.ml] enforces
    this).

    Layering: this module depends only on {!Addr} / {!Region} /
    {!Owner}, so every other hw module may feed it.  Policy — which
    enclave may touch what — flows {e down} from the controller via
    {!note_enclave} / {!allow} / {!disallow}, exactly as upward-visible
    data flows into [lib/obs].

    Domains: the [on] / {!request} switches are shared (write them
    only before spawning a fleet or after joining it), but the armed
    shadow state, the cumulative {!violation_count} and the
    {!set_on_violation} callback are per-domain — each fleet shard's
    controller arms the sanitizer for its own machine without touching
    the shards running beside it. *)

type access = [ `Read | `Write | `Exec ]

type kind =
  | Cross_owner of { actual : Owner.t }
      (** touched memory the shadow map assigns to someone else *)
  | Freed_access  (** touched memory the shadow map marks free *)
  | Corrupt_mapping of { actual : Owner.t }
      (** an EPT leaf was installed over memory the enclave does not
          own — flagged at write time, before any access *)

type source = Access | Ept_write | Tlb_install

type violation = {
  owner : Owner.t;  (** who performed the operation *)
  enclave : int;  (** its enclave id *)
  cpu : int;  (** faulting core, [-1] for non-access events *)
  addr : Addr.t;  (** start of the offending range *)
  len : int;  (** its length in bytes *)
  kind : kind;
  source : source;
}

val pp_violation : Format.formatter -> violation -> unit
(** One-line rendering, e.g.
    ["access by enclave#2 cpu3 at 0x40000000+8: freed-region access"]. *)

(** {1 Switches} *)

val on : bool ref
(** The single branch hot paths test.  Do not set directly — use
    {!enable} / {!disable} (or {!request} plus a controller attach). *)

val violated : (kind, unit) Covirt_obs.Probe.point
(** Fired with the kind of every reported violation. *)

val request : unit -> unit
(** Sticky opt-in: the next controller attach arms the shadow state
    for its machine.  Harnesses call this before building a stack. *)

val requested : unit -> bool
(** Whether {!request} is pending ([Config.sanitize] also sets it). *)

val release : unit -> unit
(** Clear the request and tear down this domain's shadow state. *)

val enable : mem_uid:int -> assignments:(Region.t * Owner.t) list -> unit
(** Arm the shadow map for the machine whose [Phys_mem] has [mem_uid],
    seeding it from a {!Phys_mem.snapshot}.  Called by the controller;
    only events for that machine are mirrored afterwards. *)

val disable : unit -> unit
(** Drop this domain's shadow state and callback.  [on] only falls
    back to [false] when no sticky {!request} is pending — another
    domain's shard may still be armed under it. *)

val active : unit -> bool
(** [!on], as a function. *)

val set_on_violation : (violation -> unit) -> unit
(** Install this domain's violation callback, invoked synchronously
    for every violation (the controller turns these into non-fatal
    [Fault_report]s).  Reset by {!disable}. *)

(** {1 Controller-facing feeds} *)

val note_enclave : id:int -> Region.t list -> unit
(** Declare the blessed set for enclave [id] (its accessible memory,
    shared windows and device BARs), replacing any previous set. *)

val note_ept : ept_uid:int -> id:int -> unit
(** Associate an EPT (by {!Ept.uid}) with its owning enclave, so leaf
    installs can be checked against the right blessed set. *)

val allow : id:int -> Region.t -> unit
(** Extend enclave [id]'s blessed set (hot-add, XEMEM attach, device
    delegation). *)

val disallow : id:int -> Region.t -> unit
(** Shrink it (memory removal, XEMEM detach, device revocation). *)

val drop_enclave : id:int -> unit
(** Forget enclave [id] entirely (enclave destroyed). *)

(** {1 Hw-facing hooks — call only under [if !on]} *)

val phys_event : mem_uid:int -> Region.t -> Owner.t -> unit
(** Mirror a [Phys_mem] ownership change: [region] now belongs to the
    given owner ([Free] on release). *)

val access :
  mem_uid:int -> cpu:int -> owner:Owner.t -> base:Addr.t -> len:int ->
  access:access -> unit
(** Check one translated access by the core owned by [owner].  Flags
    {!Cross_owner} / {!Freed_access} when the range leaves the blessed
    set; host cores and unmanaged enclaves are never flagged. *)

val ept_write : ept_uid:int -> base:Addr.t -> len:int -> present:bool -> unit
(** Mirror an EPT map ([present = true]) or unmap event.  A mapping
    outside the owner's blessed set is flagged as {!Corrupt_mapping}
    at install time — before any guest access touches it. *)

val tlb_install : Addr.t -> page_size:int -> unit
(** Count a TLB fill (kept for the stats surface; fills are already
    covered by the access check). *)

(** {1 Introspection} *)

val violations : unit -> violation list
(** Violations recorded since {!enable}, oldest first (capped at 512;
    the count keeps incrementing past the cap). *)

val violation_count : unit -> int
(** Cumulative violations across enables in this domain — campaigns
    diff this per trial (each trial runs wholly inside one shard, so
    the delta is well-defined). *)

type stats = {
  accesses : int;  (** translated accesses checked *)
  ept_writes : int;  (** EPT map/unmap events mirrored *)
  tlb_installs : int;  (** TLB fills mirrored *)
}

val stats : unit -> stats
(** Mirroring counters for the current shadow state (zeros when off). *)
