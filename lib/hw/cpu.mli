(** A CPU core.

    Carries the per-core state the rest of the stack operates on: the
    timestamp counter that accumulates simulated cycles, the local
    APIC, the TLB, the execution mode (host or VMX non-root under a
    VMCS), and the owner the core is currently assigned to. *)

type mode = Host_mode | Guest_mode of Vmcs.t

type t = {
  id : int;
  zone : Numa.zone;
  apic : Apic.t;
  tlb : Tlb.t;
  mutable tsc : int;
  mutable mode : mode;
  mutable owner : Owner.t;
  mutable online : bool;
  mutable isr : (t -> int -> unit) option;
      (** the running kernel's interrupt dispatch entry point *)
  mutable nmi_handler : (t -> unit) option;
  mutable guest_pt : Guest_pt.t option;
      (** the running kernel's page tables; [None] until a kernel
          installs its CR3 *)
}

val create : id:int -> zone:Numa.zone -> model:Cost_model.t -> t

val charge : t -> int -> unit
(** Advance the TSC by a cycle count ([Invalid_argument] if
    negative). *)

val rdtsc : t -> int

val vmcs : t -> Vmcs.t option
val in_guest : t -> bool
val enclave : t -> int option
(** Enclave id when the core is owned by one (independent of mode —
    native co-kernels own cores without a VMCS). *)

val pp : Format.formatter -> t -> unit
