(** The Covirt controller module.

    The host-side half of the split architecture.  It attaches to the
    co-kernel framework's resource-management hook points and
    translates resource events into virtualization-context updates:

    - enclave creation: build the EPT identity map of the assigned
      memory (before any core boots);
    - boot: interpose the hypervisor into the CPU boot path
      (pre-writing the VMCS, launching, then jumping to the co-kernel);
    - memory/XEMEM map: update the EPT {e before} the page list is
      transmitted — no hypervisor involvement (nothing stale can be
      cached for a new mapping);
    - memory/XEMEM unmap: after the co-kernel's ack, remove the EPT
      entries, push flush commands to every core's queue and signal
      with NMI doorbells; only then does control return so the host
      can reclaim the frames;
    - vector grant/revoke: update the whitelist (revokes also
      synchronize via the queue).

    Configuration updates are thus asynchronous with respect to the
    enclave's execution: all computation happens here on the host
    core, and the hypervisor is only invoked to activate changes. *)

open Covirt_pisces

type instance = {
  enclave : Enclave.t;
  config : Config.t;
  ept_mgr : Ept_manager.t option;
  whitelist : Whitelist.t;
  mutable hypervisors : (int * Hypervisor.t) list;  (** core -> hv *)
  mutable reports : Fault_report.t list;  (** newest first *)
}

type t

val attach : Pisces.t -> config:Config.t -> t
(** Register all hooks (including the boot interposer) with the
    framework.  [config] applies to every subsequently created enclave
    unless overridden by name. *)

val set_override : t -> enclave_name:string -> Config.t -> unit

val subscribe : t -> (Fault_report.t -> unit) -> unit
(** Register an observer called synchronously for every fault report
    the controller records (hypervisor enforcement events, queue
    stalls, watchdog timeouts).  Observers are called in subscription
    order, after the report has been stored.  This is the feed the
    {!Covirt_resilience.Supervisor} recovery machinery runs on. *)

val record_report : t -> Fault_report.t -> unit
(** Record an externally produced report (e.g. a watchdog timeout)
    against its enclave — into the live instance if one exists,
    straight into the post-mortem archive otherwise — and notify
    subscribers. *)

val pisces : t -> Pisces.t
val instances : t -> instance list
(** Live instances, newest first. *)

val instance_for : t -> enclave_id:int -> instance option

val granting_instances : t -> cores:int list -> instance list
(** The live instances whose whitelists hold a grant towards one of
    [cores], newest first — every grant, also one installed on a
    whitelist directly.  Read from an index the whitelists keep, so the
    destroy-time prune of grants aimed at a dead enclave's cores costs
    O(the instances found), not O(live instances). *)

val reports_for : t -> enclave_id:int -> Fault_report.t list

(** Dropped-IPI count for a live enclave, or the archived count for a
    destroyed one (the whitelist's counter is preserved at teardown). *)
val dropped_ipis : t -> enclave_id:int -> int
val total_flush_commands : t -> int
val detach : t -> unit
(** Unregister the boot interposer and remove {e this controller's}
    hooks from the framework's hook lists (hooks installed by other
    consumers are left in place); used when reconfiguring a framework
    between experiments. *)
