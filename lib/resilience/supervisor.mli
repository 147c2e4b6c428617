(** The enclave supervisor: fault-driven containment-and-recovery.

    Turns a fatal fault report into a full recovery protocol instead
    of a dead end (the Quest-V model: reboot the failed kernel while
    the rest of the machine keeps running).  Per managed enclave it
    runs a restart policy:

    - {b teardown}: if the enclave is still nominally running (the
      wedged case), its cores are halted through the hypervisor
      command queue (NMI doorbell + halt command), then the enclave is
      reclaimed through Pisces — which unmaps the EPT and releases
      cores, memory and vectors through the controller's destroy hook;
    - {b backoff}: relaunch waits an exponentially growing number of
      {e simulated cycles} (with deterministic seeded jitter), charged
      to the host control core;
    - {b relaunch}: the registered launch closure boots a fresh
      incarnation under the same name (and hence the same Covirt
      config override);
    - {b circuit breaker}: an enclave that exhausts its restart budget
      without a stability window elapsing is permanently quarantined,
      and the quarantine ledger records why.

    The supervisor subscribes to the controller's fault-report feed,
    so every recovery decision can name the report that triggered it.
    All timing is in simulated cycles — equal seeds yield equal
    recovery timelines. *)

open Covirt_pisces
open Covirt_kitten

type policy = {
  max_restarts : int;  (** restart budget before quarantine *)
  backoff_base : int;  (** first backoff delay, cycles *)
  backoff_factor : int;  (** exponential multiplier *)
  backoff_cap : int;  (** ceiling on one backoff delay *)
  stability_window : int;
      (** healthy cycles after a relaunch that reset the budget *)
  watchdog_deadline : int;  (** silence tolerated before wedge verdict *)
}

(** What happened at one step of the recovery protocol. *)
type event_kind =
  | Fault_detected of string  (** a fatal fault report arrived *)
  | Wedge_detected of string  (** the watchdog escalated a stall *)
  | Torn_down  (** cores halted, partition reclaimed *)
  | Backing_off of { cycles : int; attempt : int }
      (** waiting before relaunch attempt [attempt] *)
  | Relaunched of { enclave_id : int }  (** a fresh incarnation is up *)
  | Relaunch_failed of string  (** the launch closure failed *)
  | Quarantine of string  (** the circuit breaker tripped *)

type event = {
  tsc : int;  (** host TSC when the event was recorded *)
  name : string;  (** managed enclave name *)
  incarnation : int;  (** 0 for the original launch, +1 per relaunch *)
  kind : event_kind;
}

val pp_event : Format.formatter -> event -> unit
(** One timeline line: TSC, enclave, incarnation, kind. *)

type status = Healthy | Quarantined of string
(** An enclave is either restartable or permanently parked (with the
    ledger explanation). *)

type t
(** One supervisor; manages any number of named enclaves. *)

val create : ?policy:policy -> seed:int -> Covirt.Controller.t -> t
(** Attach to the controller's fault feed.  [policy] defaults to 5
    restarts, backoff from 100_000 cycles doubling up to 25_000_000, a
    50_000_000-cycle stability window and a 5_000_000-cycle watchdog
    deadline. *)

val manage :
  t ->
  name:string ->
  launch:(unit -> (Enclave.t * Kitten.t, string) result) ->
  (Enclave.t * Kitten.t, string) result
(** Perform the initial launch and put the enclave under supervision.
    [launch] is kept for relaunches; it must boot an enclave under
    [name]. *)

val run_protected :
  t ->
  name:string ->
  (Kitten.context -> unit) ->
  [ `Ok | `Recovered | `Quarantined of string ]
(** Run enclave code (on the current incarnation's boot core) under
    crash guard.  On containment the recovery protocol runs before
    returning: [`Recovered] if a fresh incarnation is up,
    [`Quarantined] if the circuit breaker tripped.  Already-quarantined
    enclaves are not run at all. *)

val escalate_wedged : t -> name:string -> detail:string -> unit
(** The watchdog's entry point: record a {!Covirt.Fault_report.Watchdog_timeout}
    report against the current incarnation, then run the same
    teardown-and-recovery protocol as a crash. *)

(** {2 Introspection} *)

val names : t -> string list
(** Managed enclave names, in management order. *)

val enclave : t -> name:string -> Enclave.t option
(** The current incarnation's enclave, [None] if unmanaged or down. *)

val kitten : t -> name:string -> Kitten.t option
(** The current incarnation's kernel, [None] if unmanaged or down. *)

val status : t -> name:string -> status
(** {!Healthy} unless quarantined.  Unmanaged names are healthy. *)

val attempts : t -> name:string -> int
(** Restarts consumed since the budget was last reset. *)

val incarnation : t -> name:string -> int
(** 0 for the original launch, +1 per successful relaunch. *)

val controller : t -> Covirt.Controller.t
(** The controller this supervisor subscribed to. *)

val policy : t -> policy
(** The active restart policy. *)

val timeline : t -> event list
(** All events, oldest first. *)

val quarantine_ledger : t -> (string * string) list
(** [(name, explanation)] for every permanently-down enclave, in
    quarantine order.  The explanation names the triggering fault
    report and the consumed budget. *)

val set_quarantine_hook : t -> (name:string -> why:string -> string option) -> unit
(** Install an archival callback run at the instant the circuit
    breaker trips — before the quarantine verdict reaches the caller,
    so a trace recorder's trailing window still holds the exits
    leading up to the failure.  Returning [Some path] records the
    archive in {!captures}.  The hook must not touch the supervisor
    (it runs mid-protocol); default returns [None]. *)

val captures : t -> (string * string) list
(** [(name, archive path)] for every quarantine whose hook archived
    state, in quarantine order. *)
