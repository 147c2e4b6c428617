(** VMX root/non-root transitions.

    Launching a guest, delivering synchronous VM exits to the
    installed handler with entry/exit costs charged, and tearing a
    guest down.  The Covirt hypervisor is a client of this module: it
    installs the exit handler and calls {!vmlaunch}; the machine's
    access paths call {!deliver_exit} when a trapped operation occurs. *)

exception
  Vm_terminated of { cpu_id : int; enclave : int; reason : string }
(** Raised when an exit handler returns [Kill] (or when no handler is
    installed).  The co-kernel framework catches this to reclaim the
    enclave — the fault is contained to the raising core's enclave. *)

val exit_entry : (Cpu.t, Vmcs.t) Covirt_obs.Probe.point
(** Fired for every delivered exit with the VMCS's exit record filled,
    before the handler runs, so exits whose handler kills the enclave
    are observed too. *)

val exit_edge : (int, Vmcs.action) Covirt_obs.Probe.point
(** Fired for every delivered exit with ({!Vmcs.code} of the reason,
    the handler's action), before the action is applied. *)

val vmlaunch : model:Cost_model.t -> Cpu.t -> Vmcs.t -> unit
(** Load the VMCS onto the core and enter the guest: flips the core to
    [Guest_mode], charges [vmcs_load + vmlaunch], marks the VMCS
    launched.  [Invalid_argument] if the core is already in guest
    mode. *)

val deliver_exit : model:Cost_model.t -> Cpu.t -> Vmcs.t -> [ `Resume | `Skip ]
(** Deliver the exit described by the VMCS's exit record (filled by
    the caller, see {!Vmcs.set_exit}): charge a full exit round trip
    plus dispatch, count it in [Vmcs.exits], run the handler on the
    record.  Allocates nothing unless the handler does or kills.  A
    [Kill] action raises {!Vm_terminated} after marking the core
    offline (the paper's "safely halting the CPU"), so only [`Resume]
    and [`Skip] are ever returned. *)

val vmexit_cost : model:Cost_model.t -> int
(** The charged cost of one exit round trip including dispatch. *)

val teardown : Cpu.t -> unit
(** Return the core to host mode (used during reclamation). *)
