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

val tap_on : bool ref
(** Arms {!exit_tap}.  Do not flip directly — the [covirt.replay]
    recorder owns it, reference-counted across domains.  Each
    {!deliver_exit} site pays exactly one branch when the tap is
    off. *)

val exit_tap : (Cpu.t -> Vmcs.t -> unit) ref
(** Called for every delivered exit while [tap_on], with the VMCS's
    exit record filled — before the handler runs, so exits whose
    handler kills the enclave are observed too.  The tap must never
    charge simulated cycles or draw from any RNG: recording armed is
    byte-identical to recording off. *)

val cov_on : bool ref
(** Arms {!cov_exit_tap}.  Do not flip directly — the
    [covirt.replay] coverage collector owns it, reference-counted
    across domains.  One branch per delivered exit when off. *)

val cov_exit_tap : (int -> int -> unit) ref
(** Called while [cov_on] with ({!Vmcs.code} of the reason,
    handler-outcome code: 0 resume, 1 skip, 2 kill) for every
    delivered exit — the (arm x outcome) coverage edge.  Must never
    charge simulated cycles or draw randomness: collection armed is
    byte-identical to collection off. *)

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
