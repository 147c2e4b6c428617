(** Unit conversions and human-readable formatting.

    The simulated machine counts in cycles; the paper reports
    microseconds, MB/s, GUPS and loop seconds.  All conversions funnel
    through this module so a single clock-frequency constant governs
    them. *)

val mib : int
val gib : int

val cycles_to_seconds : ghz:float -> int -> float
val cycles_to_us : ghz:float -> int -> float
val seconds_to_cycles : ghz:float -> float -> int

val bytes_per_sec_to_mb_s : float -> float
(** STREAM-style MB/s (decimal megabytes, as STREAM reports). *)

val pp_bytes : Format.formatter -> int -> unit
(** "4.0KiB", "14.0GiB", ... *)
