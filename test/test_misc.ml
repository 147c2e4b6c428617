(* Coverage for the smaller surfaces: VMX transitions, boot-parameter
   structures, the exec barrier, IPC validation, the Linux-grade noise
   profile, the kernel matrix, and pretty-printers (which are part of
   the operator-facing API). *)

open Covirt_hw
open Covirt_pisces
open Covirt_test_util

let mib = Covirt_sim.Units.mib

(* --- Vmx --- *)

let stub_vmcs ~core ~enclave =
  Vmcs.create ~vcpu:core ~enclave
    ~guest:{ Vmcs.entry_rip = 0x100000; boot_params_gpa = 0xff000; long_mode = true }
    ~controls:Vmcs.no_controls

let test_vmlaunch_semantics () =
  let m = Helpers.small_machine () in
  let cpu = Machine.cpu m 1 in
  let vmcs = stub_vmcs ~core:1 ~enclave:1 in
  let before = Cpu.rdtsc cpu in
  Vmx.vmlaunch ~model:m.Machine.model cpu vmcs;
  Alcotest.(check bool) "in guest" true (Cpu.in_guest cpu);
  Alcotest.(check bool) "launched" true vmcs.Vmcs.launched;
  Alcotest.(check bool) "charged" true (Cpu.rdtsc cpu > before);
  (* double launch is a programming error *)
  Alcotest.check_raises "double launch"
    (Invalid_argument "Vmx.vmlaunch: already in guest mode") (fun () ->
      Vmx.vmlaunch ~model:m.Machine.model cpu (stub_vmcs ~core:1 ~enclave:1));
  Vmx.teardown cpu;
  Alcotest.(check bool) "back to host" true (not (Cpu.in_guest cpu));
  Alcotest.(check bool) "online again" true cpu.Cpu.online

let test_exit_without_handler_kills () =
  let m = Helpers.small_machine () in
  let cpu = Machine.cpu m 1 in
  let vmcs = stub_vmcs ~core:1 ~enclave:7 in
  Vmx.vmlaunch ~model:m.Machine.model cpu vmcs;
  Vmcs.set_exit vmcs Vmcs.Cpuid ~qual:0 ~addr:0 ~value:0;
  match Vmx.deliver_exit ~model:m.Machine.model cpu vmcs with
  | exception Vmx.Vm_terminated { enclave; _ } ->
      Alcotest.(check int) "enclave id" 7 enclave
  | _ -> Alcotest.fail "handlerless exit must kill"

let test_exit_cost_charged () =
  let m = Helpers.small_machine () in
  let cpu = Machine.cpu m 1 in
  let vmcs = stub_vmcs ~core:1 ~enclave:1 in
  vmcs.Vmcs.exit_handler <- Some (fun _ -> Vmcs.Resume);
  Vmx.vmlaunch ~model:m.Machine.model cpu vmcs;
  let before = Cpu.rdtsc cpu in
  Vmcs.set_exit vmcs Vmcs.Cpuid ~qual:0 ~addr:0 ~value:0;
  (match Vmx.deliver_exit ~model:m.Machine.model cpu vmcs with
  | `Resume -> ()
  | `Skip -> Alcotest.fail "expected resume");
  Alcotest.(check int) "exit roundtrip charged"
    (Vmx.vmexit_cost ~model:m.Machine.model)
    (Cpu.rdtsc cpu - before)

(* --- Boot params --- *)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_boot_params_shape () =
  let params =
    Boot_params.make_pisces ~enclave_id:3 ~entry_addr:(17 * mib)
      ~assigned_cores:[ 1; 2 ]
      ~assigned_memory:[ Region.make ~base:(16 * mib) ~len:(64 * mib) ]
      ~channel:(Ctrl_channel.create ()) ~timer_hz:10.0
  in
  Alcotest.(check int) "stack constant" 8192 Boot_params.hypervisor_stack_bytes;
  let rendered = Format.asprintf "%a" Boot_params.pp_pisces params in
  Alcotest.(check bool) "pp mentions enclave" true
    (contains_substring rendered "enclave 3")

(* --- Exec barrier --- *)

let test_exec_barrier_synchronizes () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let a = Helpers.ctx s 1 and b = Helpers.ctx s 2 in
  Cpu.charge a.Covirt_kitten.Kitten.cpu 1_000_000;
  Covirt_workloads.Exec.barrier [ a; b ];
  let ta = Cpu.rdtsc a.Covirt_kitten.Kitten.cpu in
  let tb = Cpu.rdtsc b.Covirt_kitten.Kitten.cpu in
  Alcotest.(check bool) "clocks within barrier cost" true (abs (ta - tb) <= 240);
  (* single-participant barrier is free *)
  let before = Cpu.rdtsc a.Covirt_kitten.Kitten.cpu in
  Covirt_workloads.Exec.barrier [ a ];
  Alcotest.(check int) "solo barrier free" before
    (Cpu.rdtsc a.Covirt_kitten.Kitten.cpu)

(* --- IPC validation --- *)

let test_ipc_validation () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let cons, cons_kitten = Helpers.second_enclave s () in
  Alcotest.check_raises "ring size" (Invalid_argument "Ipc.connect: ring_bytes")
    (fun () ->
      ignore
        (Covirt_hobbes.Ipc.connect s.Helpers.hobbes
           ~producer:(s.Helpers.enclave, s.Helpers.kitten)
           ~consumer:(cons, cons_kitten) ~name:"bad" ~ring_bytes:0))

(* --- Selfish on a Linux-grade core --- *)

let test_selfish_linux_profile () =
  let m = Helpers.small_machine () in
  let cpu = Machine.cpu m 1 in
  Apic.set_timer_hz cpu.Cpu.apic 250.0;
  let r =
    Covirt_workloads.Selfish.run_on_cpu m cpu ~duration_s:1.0
      ~background_mean_s:0.002 ~background_cost_cycles:50_000 ()
  in
  (* 250 ticks + ~500 background events *)
  Alcotest.(check bool) "hundreds of detours" true
    (List.length r.Covirt_workloads.Selfish.detours > 400);
  Alcotest.(check bool) "noise orders above LWK" true
    (r.Covirt_workloads.Selfish.noise_fraction > 0.001)

let test_noise_compare_ordering () =
  let rows = Covirt_harness.Noise_compare.run ~duration_s:0.5 () in
  match rows with
  | [ host; native; covirt ] ->
      Alcotest.(check bool) "host noisiest" true
        (host.Covirt_harness.Noise_compare.noise_fraction
        > 100.0 *. native.Covirt_harness.Noise_compare.noise_fraction);
      Alcotest.(check bool) "covirt close to native" true
        (covirt.Covirt_harness.Noise_compare.noise_fraction
        < 3.0 *. native.Covirt_harness.Noise_compare.noise_fraction)
  | _ -> Alcotest.fail "expected three environments"

(* --- Kernel matrix --- *)

let test_kernel_matrix () =
  let rows = Covirt_harness.Kernels.matrix () in
  Alcotest.(check int) "four kernels" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Covirt_harness.Kernels.kernel ^ " boots")
        true r.Covirt_harness.Kernels.boots_under_covirt;
      Alcotest.(check bool)
        (r.Covirt_harness.Kernels.kernel ^ " contained")
        true r.Covirt_harness.Kernels.wild_write_contained)
    rows

(* --- Pretty printers --- *)

let test_pretty_printers () =
  let check_nonempty name s =
    Alcotest.(check bool) name true (String.length s > 0)
  in
  check_nonempty "icr"
    (Format.asprintf "%a" Apic.pp_icr { Apic.dest = 1; vector = 8; kind = Apic.Nmi });
  check_nonempty "command"
    (Format.asprintf "%a" Covirt.Command.pp_command Covirt.Command.Flush_tlb_all);
  check_nonempty "owner" (Owner.to_string (Owner.Device "nic"));
  check_nonempty "host msg"
    (Format.asprintf "%a" Message.pp_host_msg
       (Message.Assign_device
          { seq = 1; device = "nic"; window = Region.make ~base:0 ~len:4096 }));
  check_nonempty "enclave msg"
    (Format.asprintf "%a" Message.pp_enclave_msg (Message.Console "hello"));
  let s = Helpers.boot_stack ~config:Covirt.Config.full () in
  check_nonempty "protection summary"
    (Covirt.protection_summary s.Helpers.controller);
  check_nonempty "hobbes status"
    (Format.asprintf "%a" Covirt_hobbes.Hobbes.pp_status s.Helpers.hobbes)

let () =
  Alcotest.run "misc"
    [
      ( "vmx",
        [
          Alcotest.test_case "vmlaunch" `Quick test_vmlaunch_semantics;
          Alcotest.test_case "handlerless exit" `Quick
            test_exit_without_handler_kills;
          Alcotest.test_case "exit cost" `Quick test_exit_cost_charged;
        ] );
      ("boot-params", [ Alcotest.test_case "shape" `Quick test_boot_params_shape ]);
      ("exec", [ Alcotest.test_case "barrier" `Quick test_exec_barrier_synchronizes ]);
      ("ipc", [ Alcotest.test_case "validation" `Quick test_ipc_validation ]);
      ( "noise",
        [
          Alcotest.test_case "linux profile" `Quick test_selfish_linux_profile;
          Alcotest.test_case "compare ordering" `Quick test_noise_compare_ordering;
        ] );
      ("kernels", [ Alcotest.test_case "matrix" `Quick test_kernel_matrix ]);
      ("pp", [ Alcotest.test_case "printers" `Quick test_pretty_printers ]);
    ]
