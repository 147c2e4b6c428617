(** Event trace recording.

    A bounded in-memory ring of timestamped events.  The paper argues
    Covirt's value partly as a debugging aid ("provided the ability to
    collect debugging traces when [a fault] did occur"); every fault
    path in this implementation records into a trace that examples and
    tests can inspect after a contained crash. *)

type severity = Debug | Info | Warn | Error

type event = { tsc : int; cpu : int; severity : severity; message : string }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 events; older events are dropped first. *)

val record : t -> tsc:int -> cpu:int -> severity:severity -> string -> unit
val recordf :
  t ->
  tsc:int ->
  cpu:int ->
  severity:severity ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a

val events : t -> event list
(** Oldest first. *)

val dropped : t -> int
(** Number of events lost to capacity. *)

val find : t -> f:(event -> bool) -> event option
val clear : t -> unit
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
