(** NUMA topology.

    The evaluation platform is a dual-socket Xeon node; Figs. 6 and 7
    scale enclaves across core/NUMA-zone layouts, so the simulated
    machine models zones explicitly: each CPU and each memory region
    belongs to a zone, and the cost model charges a remote-access
    penalty when they differ. *)

type zone = int

type t

val create : zones:int -> cores_per_zone:int -> mem_per_zone:int -> t
(** A symmetric topology.  [mem_per_zone] is in bytes; zone [z] owns
    the physical range [\[z * mem_per_zone, (z+1) * mem_per_zone)]. *)

val zones : t -> int
val cores : t -> int
val cores_per_zone : t -> int
val mem_per_zone : t -> int
val total_mem : t -> int

val zone_of_core : t -> core:int -> zone
val zone_of_addr : t -> Addr.t -> zone
(** Addresses past the end of memory report the last zone (device /
    MMIO space hangs off the top in our machine layout). *)

val cores_of_zone : t -> zone -> int list
val zone_range : t -> zone -> Region.t
val addr_in_zone : t -> zone:zone -> Addr.t -> bool
(** [addr_in_zone t ~zone a] is [zone_of_addr t a = zone], computed
    without a division (the granular access path asks it per word).
    [zone] must be one of the topology's zones. *)

val is_local : t -> core:int -> addr:Addr.t -> bool
val pp : Format.formatter -> t -> unit
