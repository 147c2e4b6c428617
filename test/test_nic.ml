(* End-to-end device I/O: a Kitten driver drives a delegated NIC — TX
   doorbells through the EPT-policed MMIO path, RX via MSI in every
   interrupt-delivery mode — and the usual native-vs-covirt containment
   story for driver bugs. *)

open Covirt_hw
open Covirt_pisces
open Covirt_kitten
open Covirt_test_util

let nic_stack ~config () =
  let s = Helpers.boot_stack ~config () in
  let nic = Nic.create s.Helpers.machine ~name:"nic0" in
  (s, nic)

(* boot, delegate, register the driver's irq handler, bind the MSI *)
let bring_up_driver (s : Helpers.stack) nic ~vector =
  let p = Helpers.pisces s in
  (match Pisces.assign_device p s.Helpers.enclave ~device:"nic0" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let rx_seen = ref 0 in
  Kitten.register_irq s.Helpers.kitten ~vector (fun _ _ -> incr rx_seen);
  Nic.bind_msi nic ~core:1 ~vector;
  rx_seen

let test_tx_rx_native () =
  let s, nic = nic_stack ~config:Covirt.Config.native () in
  let rx_seen = bring_up_driver s nic ~vector:0x60 in
  let ctx = Helpers.ctx s 1 in
  Nic.ring_tx s.Helpers.machine ctx.Kitten.cpu nic;
  Nic.ring_tx s.Helpers.machine ctx.Kitten.cpu nic;
  Alcotest.(check int) "tx counted" 2 (Nic.tx_count nic);
  (match Nic.inject_rx s.Helpers.machine nic with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "rx handled" 1 !rx_seen;
  Alcotest.(check int) "rx counted" 1 (Nic.rx_count nic)

let rx_exits ~config () =
  let s, nic = nic_stack ~config () in
  let rx_seen = bring_up_driver s nic ~vector:0x60 in
  (match Nic.inject_rx s.Helpers.machine nic with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "rx handled" 1 !rx_seen;
  match
    Covirt.Controller.instance_for s.Helpers.controller
      ~enclave_id:s.Helpers.enclave.Enclave.id
  with
  | None -> 0
  | Some inst ->
      List.fold_left
        (fun acc (_, hv) ->
          let exits = (Covirt.Hypervisor.vmcs hv).Vmcs.exits in
          acc + exits.(Vmcs.code Vmcs.External_interrupt))
        0 inst.Covirt.Controller.hypervisors

let test_rx_exit_behaviour_by_mode () =
  (* native and vapic-off: no exits; PIV and full: device interrupts
     exit (unlike IPIs under PIV) *)
  Alcotest.(check int) "native" 0 (rx_exits ~config:Covirt.Config.native ());
  Alcotest.(check int) "covirt, vapic off" 0
    (rx_exits ~config:Covirt.Config.mem ());
  Alcotest.(check int) "PIV still exits for devices" 1
    (rx_exits ~config:Covirt.Config.ipi ());
  Alcotest.(check int) "full vapic exits" 1
    (rx_exits
       ~config:{ Covirt.Config.none with ipi = Covirt.Config.Ipi_vapic_full }
       ())

let test_driver_tx_protected () =
  (* the driver of enclave A cannot ring enclave B's NIC *)
  let s, nic = nic_stack ~config:Covirt.Config.mem () in
  let _rx = bring_up_driver s nic ~vector:0x60 in
  let intruder_enclave, intruder_kitten = Helpers.second_enclave s () in
  let ictx = Kitten.context intruder_kitten ~core:3 in
  match
    Pisces.run_guarded (Helpers.pisces s) (fun () ->
        Kitten.poke_foreign_mmio ictx
          ((Nic.window nic).Region.base + Nic.doorbell_offset))
  with
  | Error crash ->
      Alcotest.(check int) "intruder terminated" intruder_enclave.Enclave.id
        crash.Pisces.enclave_id;
      Alcotest.(check int) "no phantom tx" 0 (Nic.tx_count nic)
  | Ok () -> Alcotest.fail "not contained"

let test_rx_without_binding () =
  let s, nic = nic_stack ~config:Covirt.Config.native () in
  ignore s;
  Alcotest.(check bool) "unbound rx fails cleanly" true
    (Result.is_error (Nic.inject_rx s.Helpers.machine nic));
  Alcotest.check_raises "bad vector" (Invalid_argument "Nic.bind_msi: vector")
    (fun () -> Nic.bind_msi nic ~core:1 ~vector:8)

let test_rx_under_piv_costs_more_than_native () =
  let cost ~config =
    let s, nic = nic_stack ~config () in
    let _rx = bring_up_driver s nic ~vector:0x60 in
    let cpu = Machine.cpu s.Helpers.machine 1 in
    let before = Cpu.rdtsc cpu in
    (match Nic.inject_rx s.Helpers.machine nic with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    Cpu.rdtsc cpu - before
  in
  let native = cost ~config:Covirt.Config.native in
  let piv = cost ~config:Covirt.Config.ipi in
  Alcotest.(check bool) "device rx pays the exit under PIV" true
    (piv > native + 1000)

let () =
  Alcotest.run "nic"
    [
      ( "nic",
        [
          Alcotest.test_case "tx/rx native" `Quick test_tx_rx_native;
          Alcotest.test_case "rx exits by mode" `Quick
            test_rx_exit_behaviour_by_mode;
          Alcotest.test_case "tx protected" `Quick test_driver_tx_protected;
          Alcotest.test_case "unbound rx" `Quick test_rx_without_binding;
          Alcotest.test_case "rx cost under PIV" `Quick
            test_rx_under_piv_costs_more_than_native;
        ] );
    ]
