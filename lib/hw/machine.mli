(** The simulated node.

    Assembles cores, NUMA topology, physical memory, MSR and port
    spaces into one machine and implements the access paths everything
    above runs on:

    - {b granular} loads/stores used by control paths and fault
      injection, which exercise the real TLB and EPT structures (so
      stale-TLB windows, flush ordering and EPT violations behave like
      hardware);
    - {b bulk} cost-charging used by workload kernels, which applies
      the analytic cache/TLB/EPT models (simulating 10^9 individual
      accesses would be pointless);
    - the {b interrupt} paths: IPIs (with sender-side ICR trapping and
      the three incoming-delivery modes), NMI doorbells, timer ticks;
    - trapped instructions: [wrmsr]/[rdmsr], port I/O, [cpuid],
      [xsetbv], [hlt].

    The machine also implements the {e failure model}: what wild
    accesses do when no protection intervenes.  A write landing in
    host-kernel memory panics the node ({!Node_panic}); one landing in
    another enclave marks it corrupted (a latent fault its kernel will
    eventually trip over); an exception-class IPI vector delivered to
    a foreign kernel crashes it.  Covirt's job, demonstrated by the
    integration tests, is to turn all of these into contained
    {!Vmx.Vm_terminated} events. *)

exception Node_panic of string

exception
  Guest_page_fault of { cpu_id : int; owner : Owner.t; gva : Addr.t }
(** A kernel-level page fault on the granular path: the running
    kernel's own page tables do not map the address.  This is the
    kernel's bug to handle (natively it oopses that kernel only);
    Covirt never sees it — the fault classes are disjoint by
    construction and the tests assert it. *)

type t = {
  model : Cost_model.t;
  topology : Numa.t;
  mem : Phys_mem.t;
  cores : Cpu.t array;
  msrs : Msr.t;
  trace : Covirt_sim.Trace.t;
  rng : Covirt_sim.Rng.t;
  corrupted : (int, string) Hashtbl.t;  (** enclave id -> cause *)
  mutable wild_reads : int;
  mutable spurious_ipis : int;
  mutable panicked : string option;
  background_streamers_by_zone : int array;
  charge_memo : Charge_memo.t;
      (** memoized per-line/per-op bulk charge costs; see
          {!Charge_memo} for the invalidation key *)
  mutable bg_gen : int;
      (** bumped by {!set_background_streamers} — part of the memo key *)
  zone_shares : int array;
      (** preallocated per-zone byte-share scratch for the cold charge
          formulas (one slot per NUMA zone) — machines are shard-local,
          so reusing it keeps the bulk-charge path allocation-free *)
}

val create :
  ?model:Cost_model.t ->
  ?seed:int ->
  ?host_reserved_per_zone:int ->
  zones:int ->
  cores_per_zone:int ->
  mem_per_zone:int ->
  unit ->
  t
(** Defaults: the paper's testbed shape is [create ~zones:2
    ~cores_per_zone:4 ~mem_per_zone:32GiB ()]; tests use smaller
    machines.  [host_reserved_per_zone] defaults to 512 MiB. *)

val cpu : t -> int -> Cpu.t
val ncores : t -> int

(* Granular accesses (control paths, fault injection). *)

val load : t -> Cpu.t -> Addr.t -> unit
val store : t -> Cpu.t -> Addr.t -> unit

(* Bulk cost charging (workload kernels). *)

val charge_stream :
  t -> Cpu.t -> base:Addr.t -> bytes:int -> sharers:int ->
  page_size:Addr.page_size -> unit
(** Sequential sweep over [\[base, base+bytes)], with [sharers] cores
    concurrently streaming from the data's zone.  NUMA locality is
    derived from the address range vs the core's zone. *)

val charge_random :
  t -> Cpu.t -> ops:int -> base:Addr.t -> working_set:int -> sharers:int ->
  page_size:Addr.page_size -> unit
(** [ops] independent 8-byte accesses uniform over
    [\[base, base+working_set)]. *)

val charge_flops : t -> Cpu.t -> int -> unit

val set_background_streamers : t -> zone:Numa.zone -> int -> unit
(** Declare standing memory-bandwidth pressure in a zone (e.g. host
    daemons, a co-tenant's streaming phase).  Bulk charges in that
    zone see the extra contenders on top of the caller's own
    [sharers].  The partitioning story this makes measurable: pressure
    in the {e other} zone costs an enclave nothing. *)

val translation_extra_per_miss : t -> Cpu.t -> probe:Addr.t -> float
(** Per-TLB-miss translation cycles beyond the native walk, as decided
    by the core's current mode and VMCS controls (guest tax, EPT walk
    by page size at [probe], APIC-virtualization tax).  Exposed for
    tests and the analytic docs; the bulk paths use it internally. *)

val check_range :
  t -> Cpu.t -> base:Addr.t -> len:int -> access:[ `Read | `Write ] -> unit
(** Bulk containment check a workload performs when it first touches a
    buffer: under EPT, an uncovered range triggers an EPT-violation
    exit exactly like a granular access would. *)

(* Trapped instructions. *)

val rdmsr : t -> Cpu.t -> int -> int64
val wrmsr : t -> Cpu.t -> int -> int64 -> unit
val outb : t -> Cpu.t -> int -> int -> unit
val cpuid : t -> Cpu.t -> unit
val xsetbv : t -> Cpu.t -> unit
val hlt : t -> Cpu.t -> unit
val raise_abort : t -> Cpu.t -> what:string -> unit
(** A double-fault-class abort on the core: natively this is fatal to
    the whole node (the handler state is gone); under Covirt it exits
    and the enclave is terminated. *)

(* Interrupts. *)

val send_ipi : t -> from:Cpu.t -> dest:int -> vector:int ->
  kind:Apic.ipi_kind -> unit

val post_host_nmi : t -> dest:int -> unit
(** Host-side NMI doorbell (the controller's command-queue signal). *)

val timer_tick : t -> Cpu.t -> unit
(** One local-APIC timer expiry on the core, with mode-dependent
    delivery cost. *)

val deliver_external_irq : t -> dest:int -> vector:int -> unit
(** A hardware device interrupt (MSI) aimed at a core.  Like the timer
    — and unlike IPIs — external interrupts exit even under posted
    interrupts ("it still requires exits for all external interrupts
    generated by hardware devices"); natively and with APIC
    virtualization off they are delivered directly. *)

val timer_tick_cost : t -> Cpu.t -> int
(** Cycles one tick costs the core in its current mode (used by the
    analytic noise model). *)

(* Failure model observability. *)

val is_corrupted : t -> enclave:int -> string option
val mark_corrupted : t -> enclave:int -> cause:string -> unit
val panicked : t -> string option
