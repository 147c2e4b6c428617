(** Translation lookaside buffer.

    Two faces:

    - a {e stateful} TLB used on the granular access path (fault
      injection, control operations).  This is what makes the
      unmap/flush ordering protocol observable: after the controller
      removes an EPT mapping, a stale entry still translates until the
      hypervisor processes a flush command — exactly the window
      Covirt's unmap protocol closes before memory is reclaimed.

    - {e analytic} miss-rate estimators used by the bulk workload
      path, where simulating per-access entries would be absurdly
      slow.

    Entries are tagged with the page size they were installed at, so
    EPT large-page coalescing changes both reach and walk cost.

    The stateful TLB is set-associative (see {!Cost_model.tlb_geometry}):
    each size class is a bank of power-of-two sets indexed by
    [vpn land (sets - 1)] with a small number of ways, so [lookup],
    [install] and (for small regions) [flush_range] probe O(ways)
    slots instead of scanning every entry.  Eviction within a set is
    pseudo-LRU, driven by a monotonic tick stamped on every hit and
    install — deterministic, unlike the random victim the linear TLB
    used, and invisible to simulated cycle counts on any access
    pattern that does not overcommit a set.

    Each TLB also remembers its last hit: the 4K page number looked
    up, and the bank and slot that answered.  A lookup of the same 4K
    page skips the probes but touches the same slot, counts the same
    hit and returns the same entry, so the memo changes host time
    only.  [install], [flush_all] and [flush_range] clear it. *)

type entry = { vpn : int; page_size : Addr.page_size }
(** A cached translation: virtual page number and the size it was
    installed at. *)

type t
(** A stateful per-CPU TLB (all size-class banks). *)

val create : model:Cost_model.t -> t
(** Fresh, empty TLB with the geometry [model] prescribes. *)

val lookup : t -> Addr.t -> entry option
(** Hit if a valid entry covers the address.  Allocation-free on both
    outcomes: a hit returns the option stored in the slot array itself
    and a miss is the immediate [None], so the warm translation path
    never touches the minor heap (asserted by the bench allocation
    gate and the zero-allocation tests). *)

val lookup_hit : t -> Addr.t -> bool
(** [lookup] collapsed to its outcome — the unboxed entry point the
    machine's granular translation path uses.  Identical probe, touch
    and observability behaviour to {!lookup}. *)

val install : t -> Addr.t -> page_size:Addr.page_size -> unit
(** Install the translation covering [addr]; refreshes the entry in
    place if present, else fills a free way, else evicts the
    pseudo-LRU victim of the indexed set. *)

val geometry : t -> Addr.page_size -> int * int
(** [(sets, ways)] of the bank holding entries of this page size. *)

val flush_all : t -> unit
(** Invalidate every entry and count the flush. *)

val flush_range : t -> Region.t -> unit
(** Invalidate entries whose page overlaps the region. *)

val entry_count : t -> int
(** Live (valid) entries across all banks. *)

val flush_count : t -> int
(** Number of full flushes performed (observability for tests). *)

val tick : t -> int
(** The pseudo-LRU clock: slot touches (hits and installs) so far.
    Exposed so tests can check that a memo hit touches exactly as a
    probe hit does. *)

val bulk_miss_rate :
  model:Cost_model.t -> page_size:Addr.page_size -> working_set:int -> float
(** Expected miss probability for one access uniformly distributed in
    [working_set], given the TLB reach at [page_size]. *)

val stream_miss_rate :
  model:Cost_model.t -> page_size:Addr.page_size -> float
(** Miss probability per cacheline of a sequential stream: one miss
    per page, i.e. [line_bytes / page_bytes]. *)
