(** The HPCC RandomAccess 64-bit LCG random stream.

    One canonical implementation of the GUPS update-stream generator —
    the shift-left / conditional-xor recurrence over the primitive
    polynomial [x^64 + x^2 + x + 1] — shared by every call site that
    needs a per-core HPCC stream, so the constants and the seeding
    convention ([0x9e3779b9 + core]) live in exactly one place. *)

type t

val stream : core:int -> t
(** A fresh per-core stream, seeded HPCC-style. *)

val next : t -> int64
(** Advance and return the new state. *)

val index : t -> modulus:int -> int
(** Advance and fold the state into a table index in
    [\[0, modulus)] — the benchmark's 30-bit mask then modulus. *)
