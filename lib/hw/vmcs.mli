(** Virtual Machine Control Structure.

    The per-core hardware context describing one guest: its entry
    state (mirroring what the Pisces trampoline would have handed the
    co-kernel), the execution controls selecting which operations trap,
    and the exit plumbing.  The Covirt controller writes this structure
    from the host side; the Covirt hypervisor loads it and handles its
    exits — the split that gives the paper's architecture its
    asynchronous-update property.

    The exit handler is installed by the hypervisor at launch.  Exits
    are delivered synchronously by {!Vmx} with entry/exit costs charged
    to the guest's core. *)

type vapic_mode =
  | Vapic_off  (** no APIC virtualization: ICR writes go to hardware *)
  | Vapic_full
      (** trap-and-emulate: ICR writes exit, incoming interrupts exit *)
  | Vapic_piv of { notification_vector : int }
      (** ICR writes still exit (whitelisting), incoming IPIs are
          posted exitlessly; external interrupts (timer) still exit *)

type controls = {
  ept : Ept.t option;  (** memory protection *)
  msr_bitmap : Msr.Bitmap.t option;
  io_bitmap : Io_port.Bitmap.t option;
  vapic : vapic_mode;
}

type guest_state = {
  entry_rip : Addr.t;  (** co-kernel start address *)
  boot_params_gpa : Addr.t;  (** passed in a register at launch *)
  long_mode : bool;  (** launched directly into 64-bit long mode *)
}

type exit_reason =
  | Ept_violation
  | Icr_write
  | Msr_access
  | Io_access
  | Cpuid
  | Xsetbv
  | Hlt
  | External_interrupt
  | Nmi_exit
  | Abort  (** double fault / triple fault class errors *)
(** The basic exit reason.  Constant constructors only, so a reason is
    an immediate: {!code} is its declaration index and storing one pays
    no write barrier.  [Abort] stays last.  What the exit carries lives
    in {!exit_info}. *)

type exit_info = {
  mutable reason : exit_reason;
  mutable qual : int;
      (** qualification.  EPT violation: access (0 read, 1 write,
          2 exec), plus [ept_present] when a translation exists (the
          permission was denied); ICR write: delivery kind
          ({!Apic.kind_code}); MSR and I/O access: 1 write, 0 read *)
  mutable addr : int;
      (** EPT violation: faulting GPA; ICR write: destination core;
          MSR access: MSR number; I/O access: port *)
  mutable value : int;
      (** ICR write and external interrupt: vector; I/O access: the
          value written *)
  mutable msr_value : int64;  (** MSR access: the value written *)
  mutable what : string;  (** abort: what went wrong *)
}
(** The exit information fields, one preallocated record per VMCS.
    The machine's exit site fills it, {!Vmx.deliver_exit} hands it to
    the handler; the next exit on this VMCS overwrites it. *)

val ept_present : int
(** The EPT-violation qualification bit set when a translation exists
    but lacks the permission (clear: nothing is mapped). *)

type action =
  | Resume  (** retry / continue the guest (after emulation) *)
  | Skip  (** suppress the trapped operation (e.g. drop an errant IPI) *)
  | Kill of { reason : string }  (** terminate the enclave *)

type t = {
  vcpu : int;  (** core this context is bound to *)
  enclave : int;
  guest : guest_state;
  mutable controls : controls;
  mutable exit_handler : (exit_info -> action) option;
  mutable launched : bool;
  exit : exit_info;  (** the exit information fields *)
  exits : int array;  (** delivered exits, indexed by {!code} *)
}

val create :
  vcpu:int -> enclave:int -> guest:guest_state -> controls:controls -> t

val no_controls : controls
(** Everything off: the "Covirt with no features" configuration. *)

val code : exit_reason -> int
(** The reason's declaration index, [0 .. exit_reason_arms - 1]. *)

val exit_reason_names : string array
(** Stable short name of each reason, indexed by {!code}
    (["ept-violation"], ["icr-write"], ...): the metric/trace label and
    the coverage-map arm name.  The one table a new reason extends. *)

val exit_reason_arms : int
(** Number of reasons: the length of {!exit_reason_names}. *)

val set_exit : t -> exit_reason -> qual:int -> addr:int -> value:int -> unit
(** Fill the exit information fields for the exit about to be
    delivered (an MSR write or abort site sets [msr_value] or [what]
    as well).  Allocates nothing. *)
