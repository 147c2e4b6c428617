(** The enclave watchdog: progress tracking for the fault class
    containment cannot see.

    A wedged co-kernel (livelocked, interrupt storm, scheduler bug)
    does nothing errant — no EPT violation, no forbidden instruction,
    no stray IPI — so the hypervisor has no exit to act on.  The
    watchdog instead watches two host-observable progress signals:

    - total VM exits across the enclave's per-core hypervisors (a
      healthy kernel ticks, traps and services commands);
    - enclave→host control-channel traffic, including the explicit
      {!Covirt_kitten.Kitten.heartbeat}.

    When neither signal advances for the policy's [watchdog_deadline]
    (in simulated host cycles), the enclave is declared wedged and
    escalated into the supervisor's teardown-and-recovery path.
    Snapshots are incarnation-aware: a relaunched enclave starts a
    fresh grace period. *)

type t
(** One watchdog, bound to a supervisor's set of managed enclaves. *)

val create : Supervisor.t -> t
(** Watch every enclave managed by the supervisor (including ones
    registered after this call). *)

val poll : t -> string list
(** Check all supervised, healthy enclaves against the deadline, at
    the current host TSC.  Each wedged enclave is escalated through
    {!Supervisor.escalate_wedged} (recording a
    [Watchdog_timeout] fault report, tearing down and recovering);
    returns the names escalated by this poll, in management order. *)
