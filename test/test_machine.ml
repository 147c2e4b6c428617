(* Machine access-path tests: translation, the failure model, VM exits
   with stub handlers, IPI delivery in all three incoming modes, timer
   costs.  These drive the machine directly with hand-built VMCS
   structures; the full Covirt policy is tested in test_covirt and
   test_faults. *)

open Covirt_hw
open Covirt_test_util

let mib = Covirt_sim.Units.mib

let machine () = Helpers.small_machine ()

(* Give a core to an enclave owner and optionally enter guest mode
   with the given controls and handler. *)
let enter_guest m ~core ~enclave ?ept ?(vapic = Vmcs.Vapic_off) ?msr_bitmap
    ?io_bitmap handler =
  let cpu = Machine.cpu m core in
  cpu.Cpu.owner <- Owner.Enclave enclave;
  let vmcs =
    Vmcs.create ~vcpu:core ~enclave
      ~guest:{ Vmcs.entry_rip = 0; boot_params_gpa = 0; long_mode = true }
      ~controls:{ Vmcs.ept; msr_bitmap; io_bitmap; vapic }
  in
  vmcs.Vmcs.exit_handler <- Some handler;
  Vmx.vmlaunch ~model:m.Machine.model cpu vmcs;
  (cpu, vmcs)

let enclave_region m ~enclave ~zone ~len =
  match Phys_mem.alloc m.Machine.mem ~owner:(Owner.Enclave enclave) ~zone ~len with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_host_store_unchecked () =
  let m = machine () in
  let cpu = Machine.cpu m 0 in
  (* Host stores to its own reserved memory are fine. *)
  Machine.store m cpu 0x2000;
  Alcotest.(check bool) "time advanced" true (Cpu.rdtsc cpu > 0)

let test_native_enclave_wild_write_panics_host () =
  let m = machine () in
  let cpu = Machine.cpu m 1 in
  cpu.Cpu.owner <- Owner.Enclave 1;
  (* 0x2000 is host-kernel reserved memory: native wild write = panic *)
  Helpers.expect_panic "host write" (fun () -> Machine.store m cpu 0x2000);
  Alcotest.(check bool) "panicked flag" true (Machine.panicked m <> None)

let test_native_cross_enclave_write_corrupts () =
  let m = machine () in
  let r2 = enclave_region m ~enclave:2 ~zone:0 ~len:(16 * mib) in
  let cpu = Machine.cpu m 1 in
  cpu.Cpu.owner <- Owner.Enclave 1;
  Machine.store m cpu r2.Region.base;
  (match Machine.is_corrupted m ~enclave:2 with
  | Some _ -> ()
  | None -> Alcotest.fail "victim not marked corrupted");
  Alcotest.(check bool) "attacker unmarked" true
    (Machine.is_corrupted m ~enclave:1 = None)

let test_guest_ept_violation_exits () =
  let m = machine () in
  let exits = ref [] in
  let cpu, vmcs =
    enter_guest m ~core:1 ~enclave:1 ~ept:(Ept.create ())
      (fun x ->
        exits := x.Vmcs.reason :: !exits;
        Vmcs.Kill { reason = "violation" })
  in
  Helpers.expect_crash "ept violation" (fun () -> Machine.store m cpu 0x2000);
  Alcotest.(check int) "one exit" 1 (List.length !exits);
  Alcotest.(check int) "stat counted" 1 vmcs.Vmcs.exits.(Vmcs.code Vmcs.Ept_violation);
  Alcotest.(check bool) "core offline" true (not cpu.Cpu.online);
  (* the wild write never reached memory: no panic, no corruption *)
  Alcotest.(check bool) "no panic" true (Machine.panicked m = None)

let test_guest_ept_mapped_access_ok () =
  let m = machine () in
  let r = enclave_region m ~enclave:1 ~zone:0 ~len:(16 * mib) in
  let ept = Ept.create () in
  Ept.map_region ept r;
  let cpu, vmcs =
    enter_guest m ~core:1 ~enclave:1 ~ept (fun _ -> Vmcs.Kill { reason = "x" })
  in
  Machine.store m cpu r.Region.base;
  Machine.load m cpu (r.Region.base + 8);
  Alcotest.(check int) "no exits" 0 (Array.fold_left ( + ) 0 vmcs.Vmcs.exits)

let test_stale_tlb_window () =
  (* The dangerous window Covirt's flush protocol closes: translate
     once (TLB fill), unmap the EPT, access again without flushing —
     the stale entry still translates.  After a flush, it faults. *)
  let m = machine () in
  let r = enclave_region m ~enclave:1 ~zone:0 ~len:(16 * mib) in
  let ept = Ept.create () in
  Ept.map_region ept r;
  let cpu, _ =
    enter_guest m ~core:1 ~enclave:1 ~ept (fun _ -> Vmcs.Kill { reason = "v" })
  in
  Machine.store m cpu r.Region.base;
  Ept.unmap_region ept r;
  (* stale entry: the access still goes through *)
  Machine.store m cpu r.Region.base;
  Alcotest.(check bool) "still online (stale window)" true cpu.Cpu.online;
  Tlb.flush_range cpu.Cpu.tlb r;
  Helpers.expect_crash "after flush faults" (fun () ->
      Machine.store m cpu r.Region.base)

let test_check_range_bulk () =
  let m = machine () in
  let r = enclave_region m ~enclave:1 ~zone:0 ~len:(16 * mib) in
  let ept = Ept.create () in
  Ept.map_region ept r;
  let cpu, _ =
    enter_guest m ~core:1 ~enclave:1 ~ept (fun _ -> Vmcs.Kill { reason = "v" })
  in
  Machine.check_range m cpu ~base:r.Region.base ~len:r.Region.len ~access:`Write;
  Helpers.expect_crash "uncovered range" (fun () ->
      Machine.check_range m cpu ~base:r.Region.base ~len:(r.Region.len + 4096)
        ~access:`Read)

let test_msr_trap_and_native () =
  let m = machine () in
  (* native enclave writing a sensitive MSR panics the node *)
  let cpu1 = Machine.cpu m 1 in
  cpu1.Cpu.owner <- Owner.Enclave 1;
  Helpers.expect_panic "native smm write" (fun () ->
      Machine.wrmsr m cpu1 Msr.ia32_smm_monitor_ctl 1L);
  (* guest with bitmap: trapped, handler decides *)
  let m2 = machine () in
  let trapped = ref 0 in
  let cpu, _ =
    enter_guest m2 ~core:1 ~enclave:1
      ~msr_bitmap:(Msr.Bitmap.default_sensitive ())
      (fun x ->
        match x.Vmcs.reason with
        | Vmcs.Msr_access ->
            incr trapped;
            Vmcs.Skip
        | _ -> Vmcs.Resume)
  in
  Machine.wrmsr m2 cpu Msr.ia32_smm_monitor_ctl 1L;
  Alcotest.(check int) "trapped" 1 !trapped;
  Alcotest.(check int64) "write suppressed" 0L
    (Msr.read m2.Machine.msrs Msr.ia32_smm_monitor_ctl);
  (* unprotected MSR does not trap *)
  Machine.wrmsr m2 cpu 0x345 7L;
  Alcotest.(check int) "no further traps" 1 !trapped

let test_io_trap_and_native_reset () =
  let m = machine () in
  let cpu1 = Machine.cpu m 1 in
  cpu1.Cpu.owner <- Owner.Enclave 1;
  Helpers.expect_panic "native reset" (fun () ->
      Machine.outb m cpu1 Io_port.reset_port 0x6);
  let m2 = machine () in
  let trapped = ref 0 in
  let cpu, _ =
    enter_guest m2 ~core:1 ~enclave:1
      ~io_bitmap:(Io_port.Bitmap.default_sensitive ())
      (fun _ ->
        incr trapped;
        Vmcs.Skip)
  in
  Machine.outb m2 cpu Io_port.reset_port 0x6;
  Alcotest.(check int) "trapped" 1 !trapped;
  Alcotest.(check bool) "no panic" true (Machine.panicked m2 = None)

let test_emulated_instructions () =
  let m = machine () in
  let emuls = ref 0 in
  let cpu, vmcs =
    enter_guest m ~core:1 ~enclave:1 (fun x ->
        match x.Vmcs.reason with
        | Vmcs.Cpuid | Vmcs.Xsetbv | Vmcs.Hlt ->
            incr emuls;
            Vmcs.Resume
        | _ -> Vmcs.Resume)
  in
  Machine.cpuid m cpu;
  Machine.xsetbv m cpu;
  Machine.hlt m cpu;
  Alcotest.(check int) "three emulations" 3 !emuls;
  Alcotest.(check int) "emul stats" 2
    (vmcs.Vmcs.exits.(Vmcs.code Vmcs.Cpuid)
    + vmcs.Vmcs.exits.(Vmcs.code Vmcs.Xsetbv));
  Alcotest.(check int) "hlt stat" 1 vmcs.Vmcs.exits.(Vmcs.code Vmcs.Hlt)

let test_abort_paths () =
  let m = machine () in
  let cpu1 = Machine.cpu m 1 in
  cpu1.Cpu.owner <- Owner.Enclave 1;
  Helpers.expect_panic "native double fault" (fun () ->
      Machine.raise_abort m cpu1 ~what:"double fault");
  let m2 = machine () in
  let cpu, _ =
    enter_guest m2 ~core:1 ~enclave:1 (fun x ->
        match x.Vmcs.reason with
        | Vmcs.Abort -> Vmcs.Kill { reason = "abort" }
        | _ -> Vmcs.Resume)
  in
  Helpers.expect_crash "guest abort contained" (fun () ->
      Machine.raise_abort m2 cpu ~what:"double fault")

(* --- IPI delivery --- *)

let test_ipi_native_delivery () =
  let m = machine () in
  let received = ref [] in
  let dest = Machine.cpu m 2 in
  dest.Cpu.isr <- Some (fun _ v -> received := v :: !received);
  let src = Machine.cpu m 1 in
  Machine.send_ipi m ~from:src ~dest:2 ~vector:0x40 ~kind:Apic.Fixed;
  Alcotest.(check (list int)) "delivered" [ 0x40 ] !received;
  Alcotest.(check int) "sender counted" 1 (Apic.ipis_sent src.Cpu.apic)

let test_ipi_sender_trap_drop () =
  let m = machine () in
  let cpu, vmcs =
    enter_guest m ~core:1 ~enclave:1 ~vapic:Vmcs.Vapic_full (fun x ->
        match x.Vmcs.reason with Vmcs.Icr_write -> Vmcs.Skip | _ -> Vmcs.Resume)
  in
  let received = ref 0 in
  (Machine.cpu m 2).Cpu.isr <- Some (fun _ _ -> incr received);
  Machine.send_ipi m ~from:cpu ~dest:2 ~vector:0x40 ~kind:Apic.Fixed;
  Alcotest.(check int) "dropped" 0 !received;
  Alcotest.(check int) "icr exit" 1 vmcs.Vmcs.exits.(Vmcs.code Vmcs.Icr_write)

let test_ipi_incoming_vapic_full_exits () =
  let m = machine () in
  let received = ref 0 in
  let dest_cpu, vmcs =
    enter_guest m ~core:2 ~enclave:1 ~vapic:Vmcs.Vapic_full (fun x ->
        match x.Vmcs.reason with
        | Vmcs.External_interrupt -> Vmcs.Resume
        | _ -> Vmcs.Resume)
  in
  dest_cpu.Cpu.isr <- Some (fun _ _ -> incr received);
  let src = Machine.cpu m 1 in
  src.Cpu.owner <- Owner.Enclave 1;
  Machine.send_ipi m ~from:src ~dest:2 ~vector:0x40 ~kind:Apic.Fixed;
  Alcotest.(check int) "delivered after exit" 1 !received;
  Alcotest.(check int) "interrupt exit" 1 vmcs.Vmcs.exits.(Vmcs.code Vmcs.External_interrupt)

let test_ipi_incoming_piv_exitless () =
  let m = machine () in
  let received = ref 0 in
  let dest_cpu, vmcs =
    enter_guest m ~core:2 ~enclave:1
      ~vapic:(Vmcs.Vapic_piv { notification_vector = 0xf2 })
      (fun _ -> Vmcs.Resume)
  in
  dest_cpu.Cpu.isr <- Some (fun _ _ -> incr received);
  let src = Machine.cpu m 1 in
  src.Cpu.owner <- Owner.Enclave 1;
  Machine.send_ipi m ~from:src ~dest:2 ~vector:0x40 ~kind:Apic.Fixed;
  Alcotest.(check int) "delivered" 1 !received;
  Alcotest.(check int) "no interrupt exits (exitless PIV)" 0
    vmcs.Vmcs.exits.(Vmcs.code Vmcs.External_interrupt)

let test_errant_exception_vector_kills_victim () =
  let m = machine () in
  let src = Machine.cpu m 1 in
  src.Cpu.owner <- Owner.Enclave 1;
  let dest = Machine.cpu m 2 in
  dest.Cpu.owner <- Owner.Enclave 2;
  Machine.send_ipi m ~from:src ~dest:2 ~vector:8 ~kind:Apic.Fixed;
  Alcotest.(check bool) "victim corrupted" true
    (Machine.is_corrupted m ~enclave:2 <> None);
  (* and against a host core it panics the node *)
  let m2 = machine () in
  let src2 = Machine.cpu m2 1 in
  src2.Cpu.owner <- Owner.Enclave 1;
  Helpers.expect_panic "host victim" (fun () ->
      Machine.send_ipi m2 ~from:src2 ~dest:0 ~vector:8 ~kind:Apic.Fixed)

let test_errant_init_resets () =
  let m = machine () in
  let src = Machine.cpu m 1 in
  src.Cpu.owner <- Owner.Enclave 1;
  let dest = Machine.cpu m 2 in
  dest.Cpu.owner <- Owner.Enclave 2;
  Machine.send_ipi m ~from:src ~dest:2 ~vector:0 ~kind:Apic.Init;
  Alcotest.(check bool) "victim reset" true
    (Machine.is_corrupted m ~enclave:2 <> None)

let test_nmi_doorbell () =
  let m = machine () in
  let nmis = ref 0 in
  let cpu, vmcs =
    enter_guest m ~core:1 ~enclave:1 (fun x ->
        match x.Vmcs.reason with
        | Vmcs.Nmi_exit ->
            incr nmis;
            Vmcs.Skip
        | _ -> Vmcs.Resume)
  in
  ignore cpu;
  Machine.post_host_nmi m ~dest:1;
  Alcotest.(check int) "nmi exit" 1 !nmis;
  Alcotest.(check int) "stat" 1 vmcs.Vmcs.exits.(Vmcs.code Vmcs.Nmi_exit);
  (* host-mode NMI goes to the host handler *)
  let host_nmis = ref 0 in
  (Machine.cpu m 0).Cpu.nmi_handler <- Some (fun _ -> incr host_nmis);
  Machine.post_host_nmi m ~dest:0;
  Alcotest.(check int) "host nmi" 1 !host_nmis

let test_timer_costs_by_mode () =
  let m = machine () in
  let host_cost = Machine.timer_tick_cost m (Machine.cpu m 0) in
  let _, _ = enter_guest m ~core:1 ~enclave:1 (fun _ -> Vmcs.Resume) in
  let off_cost = Machine.timer_tick_cost m (Machine.cpu m 1) in
  let m2 = machine () in
  let _, _ =
    enter_guest m2 ~core:1 ~enclave:1 ~vapic:Vmcs.Vapic_full (fun _ ->
        Vmcs.Resume)
  in
  let full_cost = Machine.timer_tick_cost m2 (Machine.cpu m2 1) in
  Alcotest.(check int) "vapic-off same as native" host_cost off_cost;
  Alcotest.(check bool) "vapic-full pays the exit" true (full_cost > host_cost)

let test_bulk_charging_monotone () =
  let m = machine () in
  let cpu = Machine.cpu m 0 in
  let t0 = Cpu.rdtsc cpu in
  Machine.charge_stream m cpu ~base:(256 * mib) ~bytes:mib ~sharers:1
    ~page_size:Addr.Page_2m;
  let t1 = Cpu.rdtsc cpu in
  Machine.charge_stream m cpu ~base:(256 * mib) ~bytes:(4 * mib) ~sharers:1
    ~page_size:Addr.Page_2m;
  let t2 = Cpu.rdtsc cpu in
  Alcotest.(check bool) "4x bytes costs more" true (t2 - t1 > t1 - t0);
  Machine.charge_random m cpu ~ops:1000 ~base:(256 * mib)
    ~working_set:(256 * mib) ~sharers:1 ~page_size:Addr.Page_2m;
  let t3 = Cpu.rdtsc cpu in
  Machine.charge_flops m cpu 1000;
  Alcotest.(check bool) "random charged" true (t3 > t2);
  Alcotest.(check bool) "flops charged" true (Cpu.rdtsc cpu > t3)

let test_kernel_page_fault_distinct_from_ept () =
  (* A kernel with precise page tables faults on unmapped addresses in
     ITS OWN tables — a different event from an EPT violation, and one
     Covirt never sees. *)
  let m = machine () in
  let r = enclave_region m ~enclave:1 ~zone:0 ~len:(16 * mib) in
  let pt = Guest_pt.create () in
  Guest_pt.map_region pt r;
  let ept = Ept.create () in
  Ept.map_region ept r;
  let exits = ref 0 in
  let cpu, _ =
    enter_guest m ~core:1 ~enclave:1 ~ept (fun _ ->
        incr exits;
        Vmcs.Kill { reason = "ept" })
  in
  cpu.Cpu.guest_pt <- Some pt;
  let open Covirt_obs in
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable @@ fun () ->
  let violations () = Metrics.total_counter (Metrics.snapshot ()) "ept.violation" in
  (* mapped in both: fine *)
  Machine.store m cpu r.Region.base;
  (* mapped in neither: the KERNEL's fault fires first, no exit *)
  (match Machine.store m cpu 0x9000 with
  | exception Machine.Guest_page_fault { gva; _ } ->
      Alcotest.(check int) "pf address" 0x9000 gva
  | () -> Alcotest.fail "expected kernel page fault");
  Alcotest.(check int) "no hypervisor involvement" 0 !exits;
  Alcotest.(check int) "no EPT violation counted" 0 (violations ());
  (* kernel maps it (the bug!), EPT does not: now it IS an EPT exit *)
  Guest_pt.map_region pt
    (Region.make ~base:0x8000 ~len:Addr.page_size_4k);
  Helpers.expect_crash "ept violation" (fun () -> Machine.store m cpu 0x8000);
  Alcotest.(check int) "one exit" 1 !exits;
  Alcotest.(check int) "one EPT violation counted" 1 (violations ())

let test_direct_map_translates_everything () =
  let m = machine () in
  let pt =
    Guest_pt.direct_map ~total_mem:(Numa.total_mem m.Machine.topology)
  in
  Alcotest.(check bool) "bottom" true (Guest_pt.maps pt 0);
  Alcotest.(check bool) "top" true
    (Guest_pt.maps pt (Numa.total_mem m.Machine.topology - 1));
  Alcotest.(check bool) "beyond" false
    (Guest_pt.maps pt (Numa.total_mem m.Machine.topology + 4096));
  (* the direct map coalesces into large pages *)
  let n4k, _, n1g = Guest_pt.leaf_counts pt in
  Alcotest.(check int) "no 4K leaves" 0 n4k;
  Alcotest.(check bool) "mostly 1G leaves" true (n1g >= 3)

let test_guest_translation_tax () =
  let m = machine () in
  let r = enclave_region m ~enclave:1 ~zone:0 ~len:(512 * mib) in
  let ept = Ept.create () in
  Ept.map_region ept r;
  let host = Machine.cpu m 0 in
  let extra_host = Machine.translation_extra_per_miss m host ~probe:r.Region.base in
  Alcotest.(check (float 0.0)) "host pays nothing" 0.0 extra_host;
  let cpu, _ = enter_guest m ~core:1 ~enclave:1 ~ept (fun _ -> Vmcs.Resume) in
  let extra_ept = Machine.translation_extra_per_miss m cpu ~probe:r.Region.base in
  Alcotest.(check bool) "guest with EPT pays" true (extra_ept > 0.0)

let () =
  Alcotest.run "machine"
    [
      ( "memory",
        [
          Alcotest.test_case "host store unchecked" `Quick test_host_store_unchecked;
          Alcotest.test_case "native wild write panics" `Quick
            test_native_enclave_wild_write_panics_host;
          Alcotest.test_case "native cross-enclave corrupts" `Quick
            test_native_cross_enclave_write_corrupts;
          Alcotest.test_case "guest EPT violation" `Quick
            test_guest_ept_violation_exits;
          Alcotest.test_case "guest mapped access" `Quick
            test_guest_ept_mapped_access_ok;
          Alcotest.test_case "stale TLB window" `Quick test_stale_tlb_window;
          Alcotest.test_case "bulk check_range" `Quick test_check_range_bulk;
        ] );
      ( "instructions",
        [
          Alcotest.test_case "msr" `Quick test_msr_trap_and_native;
          Alcotest.test_case "io" `Quick test_io_trap_and_native_reset;
          Alcotest.test_case "emulated" `Quick test_emulated_instructions;
          Alcotest.test_case "abort" `Quick test_abort_paths;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "native IPI" `Quick test_ipi_native_delivery;
          Alcotest.test_case "sender trap drop" `Quick test_ipi_sender_trap_drop;
          Alcotest.test_case "vapic-full incoming" `Quick
            test_ipi_incoming_vapic_full_exits;
          Alcotest.test_case "PIV exitless" `Quick test_ipi_incoming_piv_exitless;
          Alcotest.test_case "errant exception vector" `Quick
            test_errant_exception_vector_kills_victim;
          Alcotest.test_case "errant INIT" `Quick test_errant_init_resets;
          Alcotest.test_case "NMI doorbell" `Quick test_nmi_doorbell;
          Alcotest.test_case "timer costs by mode" `Quick test_timer_costs_by_mode;
        ] );
      ( "charging",
        [
          Alcotest.test_case "bulk monotone" `Quick test_bulk_charging_monotone;
          Alcotest.test_case "guest tax" `Quick test_guest_translation_tax;
          Alcotest.test_case "kernel PF vs EPT violation" `Quick
            test_kernel_page_fault_distinct_from_ept;
          Alcotest.test_case "direct map" `Quick
            test_direct_map_translates_everything;
        ] );
    ]
