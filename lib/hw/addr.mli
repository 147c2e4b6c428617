(** Physical/guest-physical addresses and page geometry.

    The simulated machine uses identity mappings throughout (a design
    pillar of both Pisces and Covirt), so a single address type serves
    for host-physical, guest-physical and guest-virtual addresses.
    Addresses are plain [int]s (63 bits is ample for a 64 GB node). *)

type t = int

val page_size_4k : int
val page_size_2m : int
val page_size_1g : int

type page_size = Page_4k | Page_2m | Page_1g

val bytes_of_page_size : page_size -> int

val page_size_code : page_size -> int
(** Immediate integer code: [Page_4k -> 0], [Page_2m -> 1],
    [Page_1g -> 2].  Part of the unboxed-result convention on the
    translation hot path ({!Ept.translate_code}): success outcomes
    travel as these codes so the warm path never allocates. *)

val page_size_of_code : int -> page_size
(** Inverse of {!page_size_code}; [Invalid_argument] on any other
    code (including the negative failure sentinels). *)

val page_down : t -> size:int -> t
(** Round down to a [size]-aligned boundary. [size] must be a power of
    two. *)

val page_up : t -> size:int -> t
(** Round up. *)

val is_aligned : t -> size:int -> bool
val pfn : t -> size:int -> int
(** Page frame number at the given granularity. *)

val pp : Format.formatter -> t -> unit
(** Hex rendering ("0x1_0000_0000"-style without separators). *)
