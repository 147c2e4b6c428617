(* Covirt core tests: configuration, command queue, whitelist, VMCS
   builder, controller hook behaviour, EPT lifecycle under the
   controller, per-enclave overrides. *)

open Covirt_hw
open Covirt_pisces
open Covirt_test_util

let mib = Covirt_sim.Units.mib

let test_config_presets () =
  let names = List.map fst Covirt.Config.presets in
  Alcotest.(check (list string)) "paper order"
    [ "native"; "none"; "mem"; "ipi"; "mem+ipi" ] names;
  Alcotest.(check string) "native name" "native"
    (Covirt.Config.name Covirt.Config.native);
  Alcotest.(check string) "none name" "none" (Covirt.Config.name Covirt.Config.none);
  Alcotest.(check string) "mem+ipi name" "mem+ipi"
    (Covirt.Config.name Covirt.Config.mem_ipi);
  Alcotest.(check bool) "full has msr+io" true
    (Covirt.Config.full.Covirt.Config.msr && Covirt.Config.full.Covirt.Config.io)

let test_command_queue_bounds () =
  let q = Covirt.Command.create_queue () in
  let region = Region.make ~base:0 ~len:4096 in
  for _ = 1 to Covirt.Command.slots do
    match Covirt.Command.enqueue q (Covirt.Command.Flush_tlb region) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done;
  Alcotest.(check bool) "full queue rejects" true
    (Result.is_error (Covirt.Command.enqueue q Covirt.Command.Flush_tlb_all));
  Alcotest.(check int) "pending" Covirt.Command.slots (Covirt.Command.pending q);
  (match Covirt.Command.dequeue q with
  | Some (Covirt.Command.Flush_tlb _) -> ()
  | _ -> Alcotest.fail "fifo order broken");
  Alcotest.(check int) "enqueued total" Covirt.Command.slots
    (Covirt.Command.enqueued_total q)

let test_whitelist_semantics () =
  let wl = Covirt.Whitelist.create ~enclave_cores:[ 1; 2 ] in
  let permits ~dest ~vector ~kind =
    Covirt.Whitelist.permits wl ~dest ~vector ~kind
  in
  Alcotest.(check bool) "intra-enclave fixed ok" true
    (permits ~dest:2 ~vector:0x99 ~kind:Apic.Fixed);
  Alcotest.(check bool) "cross-enclave denied" false
    (permits ~dest:3 ~vector:0x41 ~kind:Apic.Fixed);
  Covirt.Whitelist.grant wl ~vector:0x41 ~dest:3;
  Alcotest.(check bool) "granted ok" true
    (permits ~dest:3 ~vector:0x41 ~kind:Apic.Fixed);
  Alcotest.(check bool) "other vector still denied" false
    (permits ~dest:3 ~vector:0x42 ~kind:Apic.Fixed);
  Covirt.Whitelist.revoke wl ~vector:0x41;
  Alcotest.(check bool) "revoked" false (permits ~dest:3 ~vector:0x41 ~kind:Apic.Fixed);
  (* reset-class never crosses *)
  Covirt.Whitelist.grant wl ~vector:0 ~dest:3;
  Alcotest.(check bool) "INIT denied outside" false
    (permits ~dest:3 ~vector:0 ~kind:Apic.Init);
  Alcotest.(check bool) "NMI inside allowed" true
    (permits ~dest:1 ~vector:2 ~kind:Apic.Nmi)

let test_vmcs_builder_validation () =
  let enclave = Enclave.make ~id:1 ~name:"x" ~cores:[ 1 ] in
  let params =
    Boot_params.make_pisces ~enclave_id:1 ~entry_addr:(17 * mib)
      ~assigned_cores:[ 1 ]
      ~assigned_memory:[ Region.make ~base:(16 * mib) ~len:(64 * mib) ]
      ~channel:(Ctrl_channel.create ()) ~timer_hz:10.0
  in
  Alcotest.check_raises "memory without ept"
    (Invalid_argument "Vmcs_builder.build: memory protection needs EPT")
    (fun () ->
      ignore
        (Covirt.Vmcs_builder.build ~enclave ~params ~core:1
           ~config:Covirt.Config.mem ~ept:None));
  let vmcs =
    Covirt.Vmcs_builder.build ~enclave ~params ~core:1
      ~config:Covirt.Config.mem_ipi ~ept:(Some (Ept.create ()))
  in
  Alcotest.(check int) "entry rip mirrors trampoline" (17 * mib)
    vmcs.Vmcs.guest.Vmcs.entry_rip;
  Alcotest.(check bool) "long mode" true vmcs.Vmcs.guest.Vmcs.long_mode;
  (match vmcs.Vmcs.controls.Vmcs.vapic with
  | Vmcs.Vapic_piv _ -> ()
  | _ -> Alcotest.fail "expected PIV mode");
  let bp = Covirt.Vmcs_builder.covirt_boot_params ~params in
  Alcotest.(check int) "8KB stack" 8192
    bp.Boot_params.hypervisor_stack.Region.len;
  Alcotest.(check bool) "wraps pisces params" true
    (bp.Boot_params.pisces_params == params)

let test_controller_prebuilds_ept () =
  let s = Helpers.boot_stack ~config:Covirt.Config.mem () in
  match
    Covirt.Controller.instance_for s.Helpers.controller
      ~enclave_id:s.Helpers.enclave.Enclave.id
  with
  | None -> Alcotest.fail "no instance"
  | Some inst -> (
      match inst.Covirt.Controller.ept_mgr with
      | None -> Alcotest.fail "no EPT for mem config"
      | Some mgr ->
          Alcotest.(check int) "EPT covers assigned memory"
            (Region.Set.total_bytes (Enclave.accessible s.Helpers.enclave))
            (Covirt.Ept_manager.mapped_bytes mgr);
          let n4k, n2m, n1g = Covirt.Ept_manager.leaf_counts mgr in
          Alcotest.(check bool) "coalesced (few leaves)" true
            (n4k = 0 && n2m + n1g < 600))

let test_controller_native_config_no_instance () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  Alcotest.(check bool) "no instance for native" true
    (Covirt.Controller.instance_for s.Helpers.controller
       ~enclave_id:s.Helpers.enclave.Enclave.id
    = None);
  (* and the kernel really runs in host (non-VMX) mode *)
  Alcotest.(check bool) "not in guest mode" true
    (not (Cpu.in_guest (Machine.cpu s.Helpers.machine 1)))

let test_controller_guest_mode_when_enabled () =
  let s = Helpers.boot_stack ~config:Covirt.Config.none () in
  Alcotest.(check bool) "guest mode" true
    (Cpu.in_guest (Machine.cpu s.Helpers.machine 1));
  Alcotest.(check bool) "second core too" true
    (Cpu.in_guest (Machine.cpu s.Helpers.machine 2))

let test_ept_tracks_add_remove () =
  let s = Helpers.boot_stack ~config:Covirt.Config.mem () in
  let p = Helpers.pisces s in
  let inst =
    Option.get
      (Covirt.Controller.instance_for s.Helpers.controller
         ~enclave_id:s.Helpers.enclave.Enclave.id)
  in
  let mgr = Option.get inst.Covirt.Controller.ept_mgr in
  let before = Covirt.Ept_manager.mapped_bytes mgr in
  let region =
    match Pisces.add_memory p s.Helpers.enclave ~zone:1 ~len:(16 * mib) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "grown" (before + (16 * mib))
    (Covirt.Ept_manager.mapped_bytes mgr);
  (match Pisces.remove_memory p s.Helpers.enclave region with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "shrunk" before (Covirt.Ept_manager.mapped_bytes mgr)

let test_unmap_flushes_all_cores () =
  let s = Helpers.boot_stack ~config:Covirt.Config.mem () in
  let p = Helpers.pisces s in
  let region =
    match Pisces.add_memory p s.Helpers.enclave ~zone:1 ~len:(16 * mib) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let flushes_before =
    Covirt.Controller.total_flush_commands s.Helpers.controller
  in
  (match Pisces.remove_memory p s.Helpers.enclave region with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let flushes =
    Covirt.Controller.total_flush_commands s.Helpers.controller - flushes_before
  in
  (* one flush command per enclave core *)
  Alcotest.(check int) "both cores flushed" 2 flushes

let test_map_requires_no_hypervisor_invocation () =
  (* Additions are asynchronous: no NMI exits on the enclave cores. *)
  let s = Helpers.boot_stack ~config:Covirt.Config.mem () in
  let p = Helpers.pisces s in
  let inst =
    Option.get
      (Covirt.Controller.instance_for s.Helpers.controller
         ~enclave_id:s.Helpers.enclave.Enclave.id)
  in
  let nmi_exits () =
    List.fold_left
      (fun acc (_, hv) ->
        acc + (Covirt.Hypervisor.vmcs hv).Vmcs.exits.(Vmcs.code Vmcs.Nmi_exit))
      0 inst.Covirt.Controller.hypervisors
  in
  let before = nmi_exits () in
  (match Pisces.add_memory p s.Helpers.enclave ~zone:1 ~len:(16 * mib) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "no hypervisor invocation on map" before (nmi_exits ())

let test_per_enclave_override () =
  let machine = Helpers.small_machine () in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let controller =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes)
      ~config:Covirt.Config.full
  in
  Covirt.Controller.set_override controller ~enclave_name:"legacy"
    Covirt.Config.native;
  (match
     Covirt_hobbes.Hobbes.launch_enclave hobbes ~name:"legacy" ~cores:[ 1 ]
       ~mem:[ (0, 64 * mib) ] ()
   with
  | Error e -> Alcotest.fail e
  | Ok _ ->
      Alcotest.(check bool) "override: native" true
        (not (Cpu.in_guest (Machine.cpu machine 1))));
  match
    Covirt_hobbes.Hobbes.launch_enclave hobbes ~name:"protected" ~cores:[ 2 ]
      ~mem:[ (0, 64 * mib) ] ()
  with
  | Error e -> Alcotest.fail e
  | Ok _ ->
      Alcotest.(check bool) "default: guest" true
        (Cpu.in_guest (Machine.cpu machine 2))

let test_double_attach_rejected () =
  let machine = Helpers.small_machine () in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let _c1 =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config:Covirt.Config.mem
  in
  Alcotest.check_raises "second covirt rejected"
    (Invalid_argument "Hooks.set_boot_interposer: already installed") (fun () ->
      ignore
        (Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes)
           ~config:Covirt.Config.mem))

let test_detach_allows_reattach () =
  let machine = Helpers.small_machine () in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let c1 =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config:Covirt.Config.mem
  in
  Covirt.disable c1;
  let _c2 =
    Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config:Covirt.Config.mem
  in
  ()

let test_reports_archived_after_destroy () =
  let s = Helpers.boot_stack ~config:Covirt.Config.mem () in
  let p = Helpers.pisces s in
  let ctx = Helpers.ctx s 1 in
  let result =
    Pisces.run_guarded p (fun () -> Covirt_kitten.Kitten.store_addr ctx 0x3000)
  in
  Alcotest.(check bool) "crashed" true (Result.is_error result);
  let reports =
    Covirt.reports s.Helpers.controller ~enclave_id:s.Helpers.enclave.Enclave.id
  in
  Alcotest.(check int) "one report survives reclaim" 1 (List.length reports);
  match reports with
  | [ r ] ->
      Alcotest.(check bool) "memory violation" true
        (r.Covirt.Fault_report.kind = Covirt.Fault_report.Memory_violation);
      Alcotest.(check bool) "fatal" true r.Covirt.Fault_report.fatal
  | _ -> Alcotest.fail "unexpected reports"

let () =
  Alcotest.run "covirt"
    [
      ( "config",
        [ Alcotest.test_case "presets" `Quick test_config_presets ] );
      ( "command",
        [ Alcotest.test_case "queue bounds" `Quick test_command_queue_bounds ] );
      ( "whitelist",
        [ Alcotest.test_case "semantics" `Quick test_whitelist_semantics ] );
      ( "vmcs",
        [ Alcotest.test_case "builder" `Quick test_vmcs_builder_validation ] );
      ( "controller",
        [
          Alcotest.test_case "prebuilds EPT" `Quick test_controller_prebuilds_ept;
          Alcotest.test_case "native: no instance" `Quick
            test_controller_native_config_no_instance;
          Alcotest.test_case "enabled: guest mode" `Quick
            test_controller_guest_mode_when_enabled;
          Alcotest.test_case "EPT tracks add/remove" `Quick
            test_ept_tracks_add_remove;
          Alcotest.test_case "unmap flushes all cores" `Quick
            test_unmap_flushes_all_cores;
          Alcotest.test_case "map is asynchronous" `Quick
            test_map_requires_no_hypervisor_invocation;
          Alcotest.test_case "per-enclave override" `Quick
            test_per_enclave_override;
          Alcotest.test_case "double attach rejected" `Quick
            test_double_attach_rejected;
          Alcotest.test_case "detach/reattach" `Quick test_detach_allows_reattach;
          Alcotest.test_case "reports archived" `Quick
            test_reports_archived_after_destroy;
        ] );
    ]
