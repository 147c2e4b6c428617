(** The reusable fault-injection engine.

    Generalizes the ad-hoc fault list that used to live inside the
    campaign harness into a seeded, schedulable module, so campaigns,
    tests and the supervisor soak all drive the {e same} deterministic
    injector (the IRIS lesson: recovery paths are only trustworthy if
    the faults that exercise them are systematic and replayable).

    Two sources of faults coexist in one engine:

    - a {b seeded random stream} ({!draw}) reproducing the campaign's
      fault taxonomy — equal seeds yield equal fault sequences;
    - a {b schedule} of rules ({!due}) that fire a specific fault at a
      specific enclave at a given trial, every N trials, or once a
      cycle deadline passes. *)

open Covirt_hw
open Covirt_kitten

type fault =
  | Wild_write of Addr.t  (** raw store anywhere in physical memory *)
  | Phantom_touch of Addr.t
      (** desynchronize the believed memory map, then touch it *)
  | Errant_ipi of { dest : int; vector : int }
  | Msr_write  (** write a protected MSR *)
  | Port_reset  (** hard reset via port 0xCF9 *)
  | Double_fault  (** abort-class exception *)
  | Wedge of { cycles : int }
      (** livelock the core: no trap, no message, no progress — the
          fault class only the watchdog can notice *)

val pp_fault : Format.formatter -> fault -> unit
(** Human-readable fault name with its payload. *)

val is_wedge : fault -> bool
(** True for {!Wedge} — the class that produces no trap and must be
    caught by the watchdog rather than containment. *)

type trigger =
  | At_trial of int  (** fire exactly once, at that trial number *)
  | Every_n_trials of int  (** fire whenever [trial mod n = 0] *)
  | At_cycle of int  (** fire once, at the first check past this TSC *)

type rule = { target : string; trigger : trigger; fault : fault }
(** Inject [fault] into the enclave named [target] when [trigger]
    fires. *)

type t
(** One injector: a seeded stream plus a (mutable) schedule. *)

val create : seed:int -> ?rules:rule list -> unit -> t
(** Fresh injector.  Equal [seed]s yield equal {!draw} sequences;
    [rules] seeds the schedule (default none). *)

val seed : t -> int
(** The seed this injector was created with (serialized into replay
    traces so a trace fully determines the fault stream). *)

val draw : t -> machine_mem:int -> victim_bsp:int -> fault
(** Next fault from the seeded random stream — the campaign taxonomy:
    wild write, phantom touch, errant IPI at the victim's boot core,
    MSR write, port reset, double fault (never [Wedge]). *)

type schedule_status =
  | Due of fault list
      (** scheduled faults firing now (possibly none, with more rules
          still live) *)
  | End_of_schedule
      (** every rule in a non-empty schedule is spent: all one-shot
          triggers have fired and no recurring rule remains.  Typed so
          callers can stop consulting the schedule — and so a replayer
          knows a trace carries every fault the schedule will ever
          produce — rather than reading an empty list forever. *)

val due : t -> target:string -> trial:int -> now:int -> schedule_status
(** Scheduled faults firing for [target] at this [trial] / [now] TSC.
    One-shot triggers are consumed.  An injector created without rules
    always answers [Due []] (there is no schedule to exhaust). *)

val schedule_to_json : t -> string
(** Serialize the seed and the schedule — fired flags included — as
    one JSON object, so a replay trace or quarantine capture fully
    determines the injected faults. *)

val applied : (fault, unit) Covirt_obs.Probe.point
(** Fired with every fault as it is applied — before the fault's own
    exception can escape, so faults that kill their enclave are
    observed too. *)

val inject : t -> Kitten.context -> fault -> unit
(** Apply the fault on the given execution context and count it.  May
    raise whatever the fault raises (e.g. {!Covirt_hw.Vmx.Vm_terminated}
    under protection, {!Covirt_hw.Machine.Node_panic} natively). *)

val injected : t -> int
(** Total faults applied through {!inject}. *)
