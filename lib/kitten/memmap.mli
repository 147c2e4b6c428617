(** The co-kernel's {e believed} memory map.

    Kitten tracks the physical memory it thinks it may use: its
    assigned regions plus attached shared segments.  This is a copy of
    state owned by the host, synchronised over the control channel —
    and a copy can go stale.  The paper's central observation is that
    "even if a co-kernel is operating correctly based on its own view
    of the current system configuration, it might in fact be accessing
    hardware it should not"; the injectors at the bottom of this
    interface manufacture exactly those desynchronisations. *)

open Covirt_hw

type t

val create : Region.t list -> t

val owned : t -> Region.Set.t
val believes_usable : t -> Addr.t -> bool

val add : t -> Region.t -> unit
val remove : t -> Region.t -> unit
val add_shared : t -> segid:int -> Region.t list -> unit
val remove_shared : t -> segid:int -> unit

val add_device : t -> name:string -> Region.t -> unit
val remove_device : t -> name:string -> unit
val device_window : t -> name:string -> Region.t option
val devices : t -> (string * Region.t) list

(* Bug injectors. *)

val inject_phantom : t -> Region.t -> unit
(** Corrupt the map with a region that was never assigned (the
    "trivial coding mistake" class: an off-by-one or bad merge makes
    the kernel believe it owns memory it does not). *)

val pp : Format.formatter -> t -> unit
