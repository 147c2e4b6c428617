(** Host physical memory map: ownership and allocation.

    Tracks which owner holds each region of physical memory, supports
    contiguous NUMA-aware allocation (Kitten's memory policy demands
    physically contiguous blocks), and answers the "whose memory is
    this?" question the fault-injection machinery needs.  A slice of
    the top of the address space is reserved as device MMIO windows. *)

type t

val create : topology:Numa.t -> host_reserved_per_zone:int -> t
(** The host OS keeps [host_reserved_per_zone] bytes at the bottom of
    each zone (kernel text/data — writing there from an enclave is the
    node-killing fault); the rest starts [Free]. *)

val topology : t -> Numa.t

val uid : t -> int
(** Unique per [create]d map — the shadow sanitizer keys its mirror by
    this, so hooks from other machines are ignored. *)

val snapshot : t -> (Region.t * Owner.t) list
(** Every current assignment (disjoint, unsorted) — seeds the shadow
    sanitizer and backs the static verifier's cross-check. *)

val alloc :
  t -> owner:Owner.t -> zone:Numa.zone -> len:int -> (Region.t, string) result
(** Carve a contiguous, 2M-aligned block out of free memory in the
    zone and assign it. *)

val assign : t -> owner:Owner.t -> Region.t -> (unit, string) result
(** Explicitly assign a free region (must be entirely free). *)

val release : t -> Region.t -> unit
(** Return a region to the free pool, whoever owned it. *)

val owner_at : t -> Addr.t -> Owner.t
(** Device MMIO windows report [Device]; out-of-range addresses are
    also treated as device space (the machine maps MMIO above DRAM). *)

val owns : t -> Owner.t -> Region.t -> bool
(** [owns t o r] holds when every 4K page start of [r] — [r.base],
    [r.base + 4K], ... below [Region.limit r] — has [owner_at] equal
    to [o]; it is exactly [List.for_all] of [owner_at] over those
    addresses (so a region that straddles two owners, a freed hole or
    [mmio_base] fails it).  One pass over the assignments, O(their
    number) whatever the region's size, and it allocates nothing —
    the ownership check behind [Xemem.export]. *)

val owned_by : t -> Owner.t -> Region.Set.t
val free_bytes : t -> zone:Numa.zone -> int

val add_device : t -> name:string -> len:int -> Region.t
(** Register an MMIO window above DRAM; returns its region. *)

val find_device : t -> name:string -> Region.t option
(** The window registered under [name], whoever currently owns it. *)

val chown : t -> Region.t -> Owner.t -> unit
(** Transfer ownership of a region unconditionally (device
    delegation / reclamation — the framework has already validated the
    operation). *)

val mmio_base : t -> Addr.t
val pp : Format.formatter -> t -> unit
