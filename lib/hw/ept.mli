(** Extended (nested) page tables.

    A sparse 4-level radix table mapping guest-physical to
    host-physical addresses.  Covirt builds identity maps, so leaves
    record permissions and page size rather than a remapped target.
    Contiguous ranges are coalesced into 2M and 1G leaves whenever
    alignment allows ([max_page] caps this for the coalescing
    ablation); partially unmapping a large leaf splits it into smaller
    pages, as a real EPT manager must.

    A [Region.Set] index mirrors the radix structure for O(regions)
    bulk containment checks on the workload fast path; the radix table
    is authoritative and the two are kept consistent (validated by
    property tests).

    Two host-side caches accelerate the hot read paths without
    changing any result:

    - a {e paging-structure walk cache} memoizing how each 2M-aligned
      GPA window resolves (a uniform >=2M leaf / unmapped, or its
      level-1 PT node), so a warm [translate] is one or two hash
      probes instead of a four-level descent;
    - a [covers] memo keyed by [(base, len)].

    Both are invalidated wholesale by the generation counter — the
    [entry_writes] tally, which every leaf install and removal bumps —
    so cached answers are always those the uncached walk would give
    (asserted by a property test over random map/unmap/access
    sequences). *)

type perms = { read : bool; write : bool; exec : bool }
(** Leaf permissions. *)

val rwx : perms
(** Read + write + execute — the identity-map default. *)

val ro : perms
(** Read-only. *)

type violation = {
  gpa : Addr.t;  (** the faulting guest-physical address *)
  access : [ `Read | `Write | `Exec ];  (** what the guest attempted *)
  reason : [ `Not_mapped | `Perm_denied ];
      (** no translation at all, vs a translation without the needed
          permission *)
}
(** An EPT violation — the payload of the corresponding VM exit. *)

type t
(** One nested page table (one per enclave). *)

val create : ?max_page:Addr.page_size -> ?walk_cache:bool -> unit -> t
(** [max_page] defaults to [Page_1g].  [walk_cache] (default [true])
    disables the paging-structure walk cache when [false] — the
    reference configuration the equivalence property tests and the
    cold-walk benchmarks compare against.

    Creating a table is cheap enough to do per enclave launch: the walk
    cache is two flat 256-slot arrays, each small enough to be a
    minor-heap block, so [create] allocates nothing in the major heap
    and forces no minor collection. *)

val max_page : t -> Addr.page_size
(** The largest leaf size coalescing may produce for this table. *)

val uid : t -> int
(** Unique per [create]d table — lets callers key their own memos by
    EPT identity. *)

val generation : t -> int
(** Mapping generation: advances whenever any leaf is installed or
    removed (it is the [entry_writes] counter).  Anything cached
    against a generation is still valid iff the generation is
    unchanged. *)

val walk_cache_stats : t -> int * int
(** [(hits, misses)] of the walk cache — observability for tests and
    benchmarks; [(0, 0)] forever when the cache is disabled. *)

val cov_on : bool ref
(** Arms {!cov_tap}.  Do not flip directly — the [covirt.replay]
    coverage collector owns it, reference-counted across domains.  One
    branch per walk/violation when off. *)

val cov_tap : (int -> unit) ref
(** Called while [cov_on] with the walk-branch class taken: 0
    walk-cache hit, 1 walk-cache fill, 2 uncached walk, 3 PT-slot hit,
    4 PT-slot fill, 5 violation/not-mapped, 6 violation/perm-denied.
    The tap must not allocate, charge cycles or draw randomness —
    arming leaves the zero-GC warm path and any recorded transcript
    byte-identical. *)

val map_region : t -> ?perms:perms -> Region.t -> unit
(** Identity-map a page-aligned region (base and length must be
    4K-aligned; [Invalid_argument] otherwise).  Remapping an
    already-mapped range updates permissions. *)

val unmap_region : t -> Region.t -> unit
(** Unmap; unmapped space inside the range is ignored.  Large leaves
    straddling the boundary are split. *)

val translate : t -> Addr.t -> access:[ `Read | `Write | `Exec ] ->
  (Addr.page_size, violation) result
(** Hardware-walk one address: the leaf's page size on success (the
    caller derives walk depth from it), a {!violation}
    otherwise.  Allocates the [result] wrapper; hot callers use
    {!translate_code} instead. *)

val translate_code : t -> Addr.t -> access:[ `Read | `Write | `Exec ] -> int
(** The allocation-free walk: [Addr.page_size_code] of the leaf on
    success (non-negative), [-1] (no translation at all) or [-2]
    (translation without the permission) on failure.  Identical walk,
    cache and observability behaviour to {!translate} — a warm call
    (walk-cache hit) performs zero minor allocation, asserted by the
    bench allocation gate. *)

val violation_of_code :
  int -> Addr.t -> access:[ `Read | `Write | `Exec ] -> violation
(** Rebuild the {!violation} a failing {!translate_code} stands for —
    called only on the cold exit-delivery path. *)

val covers : t -> base:Addr.t -> len:int -> bool
(** Bulk check: the whole range is mapped (permissions not checked —
    Covirt maps everything RWX, violations are containment events). *)

val page_size_at : t -> Addr.t -> Addr.page_size option
(** Size of the leaf mapping this address, [None] if unmapped. *)

val fold_leaves :
  t ->
  init:'a ->
  f:('a -> base:Addr.t -> page_size:Addr.page_size -> perms:perms -> 'a) ->
  'a
(** Fold over every live leaf in ascending GPA order, by walking the
    radix structure itself (not the index) — so an offline verifier
    cross-checks exactly what the hardware would translate. *)

val regions : t -> Region.Set.t
(** The mapped set, from the index. *)

val leaf_counts : t -> int * int * int
(** [(n4k, n2m, n1g)] live leaves — footprint/coalescing metric. *)

val entry_writes : t -> int
(** Total leaf installs+removals performed; the controller charges
    [Cost_model.ept_entry_update] per write. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: the mapped region set and per-size leaf counts. *)
