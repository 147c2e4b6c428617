(** Cycle-cost model for the simulated machine.

    All latency constants live here, defaulted to published
    measurements of Broadwell-class Xeons (the paper's testbed is a
    dual-socket E5-2603 v4 at 1.7 GHz).  Absolute numbers are not the
    reproduction target — the *relative* overheads of the protection
    features are — but grounding the constants keeps the relative
    results honest.  Each field is documented with its role; the
    calibration-sensitive ones are marked.

    Virtualization-overhead terms and what they model:
    - [vmexit_roundtrip]: a VM exit + VM entry pair (state save/restore).
    - [ept_walk_extra_*]: added cycles per TLB miss for the two
      dimensional (guest PT x EPT) page walk, by the EPT page size
      that maps the faulting address.  Large EPT pages shorten the
      nested walk — this is why the controller coalesces (Section
      IV-C of the paper).
    - [guest_tlbmiss_tax]: per-TLB-miss cost of executing in VMX
      non-root mode even with no protection features (VPID-tagged
      lookups, paging-structure cache pressure).  Calibrated.
    - [vapic_tlbmiss_tax]: additional per-TLB-miss cost when APIC
      virtualization is active (APIC-access page range checks share
      the translation path).  Calibrated so that the memory+IPI
      configuration reproduces the paper's 3.1% RandomAccess worst
      case. *)

type t = {
  ghz : float;  (** core clock, cycles per nanosecond *)
  (* Cache hierarchy (latencies in cycles, sizes in bytes). *)
  l1_size : int;
  l2_size : int;
  l3_size : int;
  l1_hit : int;
  l2_hit : int;
  l3_hit : int;
  dram_local : int;
  dram_remote : int;
  line_bytes : int;
  stream_line_local : int;
      (** amortised per-cacheline cost of a prefetch-friendly stream *)
  stream_line_remote : int;
  bw_channels_per_zone : int;
      (** concurrent streamers a zone sustains before contention *)
  (* Flops. *)
  flop_cycles : float;  (** amortised cycles per double-precision flop *)
  (* TLB geometry. *)
  dtlb_entries_4k : int;
  dtlb_entries_2m : int;
  dtlb_entries_1g : int;
  stlb_entries_4k : int;
  (* Translation costs. *)
  pt_walk_native : int;  (** cached 4-level walk on TLB miss *)
  ept_walk_extra_4k : int;
  ept_walk_extra_2m : int;
  ept_walk_extra_1g : int;
  guest_tlbmiss_tax : int;
  vapic_tlbmiss_tax : int;
  (* VMX events. *)
  vmexit_roundtrip : int;
  exit_dispatch : int;  (** hypervisor software dispatch on top of the trip *)
  vmcs_load : int;
  vmlaunch : int;
  (* Interrupts. *)
  ipi_send_native : int;
  ipi_recv_native : int;
  icr_whitelist_check : int;
  piv_post : int;  (** hardware posted-interrupt delivery, no exit *)
  vapic_inject : int;  (** software injection after an interrupt exit *)
  nmi_roundtrip : int;
  timer_handler : int;  (** LWK timer-tick handler body *)
  (* Control-path costs (host side, not charged to the enclave). *)
  ept_entry_update : int;  (** write one EPT entry *)
  ctrl_channel_msg : int;  (** one control-channel message each way *)
  page_list_per_page : int;  (** building/consuming one PFN list entry *)
}

val default : t
(** Broadwell-ish defaults at 1.7 GHz. *)

val stream_line : t -> local:bool -> int

val tlb_geometry : entries:int -> int * int
(** [(sets, ways)] of a set-associative TLB bank with [entries] slots:
    4-way (fewer when the bank is smaller), sets the largest power of
    two fitting [entries / ways] so the set index is [vpn land
    (sets - 1)].  Raises [Invalid_argument] when [entries <= 0]. *)

val tlb_reach : t -> page_size:Addr.page_size -> int
(** Bytes covered by the (D)TLB at a page size.  The second-level TLB
    in this model holds 4K translations only, so large-page reach is
    first-level only — matching the microarchitectures where 2M
    entries never populate the STLB. *)

val ept_walk_extra : t -> Addr.page_size -> int

val expected_random_cycles : t -> working_set:int -> sharers:int -> float
(** Expected cycles for one 8-byte access uniformly distributed over a
    [working_set], with [sharers] cores dividing the L3. *)

val random_profile :
  t -> working_set:int -> sharers:int -> float * float
(** [(expected_cycles, dram_fraction)] — the expected per-access cost
    and the probability the access misses to DRAM (needed to apply
    NUMA remote penalties only to the DRAM-bound share). *)
