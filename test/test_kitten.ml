(* Kitten LWK tests: boot, allocation, believed memory map, syscalls,
   timer accounting, IRQ handling, health. *)

open Covirt_hw
open Covirt_pisces
open Covirt_kitten
open Covirt_test_util

let mib = Covirt_sim.Units.mib

(* Native stack (no Covirt features) unless stated otherwise. *)
let native_stack () = Helpers.boot_stack ~config:Covirt.Config.native ()

let test_boot_state () =
  let s = native_stack () in
  Alcotest.(check bool) "running" true (Enclave.is_running s.Helpers.enclave);
  Alcotest.(check (list int)) "cores" [ 1; 2 ] (Kitten.cores s.Helpers.kitten);
  (* boot charged time on both cores *)
  Alcotest.(check bool) "bsp time" true
    (Cpu.rdtsc (Machine.cpu s.Helpers.machine 1) > 0);
  Alcotest.(check bool) "ap time" true
    (Cpu.rdtsc (Machine.cpu s.Helpers.machine 2) > 0)

let test_boot_transparency () =
  (* The Pisces boot parameters the kernel receives are identical with
     and without Covirt underneath. *)
  let native = native_stack () in
  let covirt = Helpers.boot_stack ~config:Covirt.Config.full () in
  let params s = Kitten.params s.Helpers.kitten in
  let n = params native and c = params covirt in
  Alcotest.(check int) "entry addr" n.Boot_params.entry_addr c.Boot_params.entry_addr;
  Alcotest.(check (list int)) "cores" n.Boot_params.assigned_cores
    c.Boot_params.assigned_cores;
  Alcotest.(check bool) "memory list" true
    (List.equal Region.equal n.Boot_params.assigned_memory
       c.Boot_params.assigned_memory)

let test_kalloc_properties () =
  let s = native_stack () in
  let k = s.Helpers.kitten in
  match (Kitten.kalloc k ~bytes:(4 * mib), Kitten.kalloc k ~bytes:(4 * mib)) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "2M aligned" true
        (Addr.is_aligned a ~size:Addr.page_size_2m);
      Alcotest.(check bool) "disjoint" true (abs (a - b) >= 4 * mib);
      Alcotest.(check bool) "inside believed map" true
        (Memmap.believes_usable (Kitten.memmap k) a);
      Alcotest.(check bool) "exhaustion fails" true
        (Result.is_error (Kitten.kalloc k ~bytes:(1024 * 1024 * mib)))
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_kalloc_near_core () =
  let s = native_stack () in
  let k = s.Helpers.kitten in
  let topo = s.Helpers.machine.Machine.topology in
  (* core 2 is in zone 1; its allocations should come from zone 1 *)
  match Kitten.kalloc ~near_core:2 k ~bytes:(4 * mib) with
  | Ok a -> Alcotest.(check int) "zone 1" 1 (Numa.zone_of_addr topo a)
  | Error e -> Alcotest.fail e

let test_memmap_sync_add_remove () =
  let s = native_stack () in
  let k = s.Helpers.kitten in
  let p = Helpers.pisces s in
  match Pisces.add_memory p s.Helpers.enclave ~zone:1 ~len:(16 * mib) with
  | Error e -> Alcotest.fail e
  | Ok region ->
      Alcotest.(check bool) "kernel believes it" true
        (Memmap.believes_usable (Kitten.memmap k) region.Region.base);
      (match Pisces.remove_memory p s.Helpers.enclave region with
      | Error e -> Alcotest.fail e
      | Ok () ->
          Alcotest.(check bool) "belief revoked" true
            (not (Memmap.believes_usable (Kitten.memmap k) region.Region.base)))

let test_memmap_phantom_injection () =
  let s = native_stack () in
  let k = s.Helpers.kitten in
  let phantom = Region.make ~base:(1024 * mib) ~len:(4 * mib) in
  Alcotest.(check bool) "not believed" false
    (Memmap.believes_usable (Kitten.memmap k) phantom.Region.base);
  Kitten.inject_phantom_region k phantom;
  Alcotest.(check bool) "believed after injection" true
    (Memmap.believes_usable (Kitten.memmap k) phantom.Region.base)

let test_syscalls_local () =
  let s = native_stack () in
  let ctx = Helpers.ctx s 1 in
  Alcotest.(check int) "getpid" 1 (Kitten.syscall ctx ~number:Syscall.nr_getpid ~arg:0);
  Alcotest.(check int) "enosys" (-38) (Kitten.syscall ctx ~number:999 ~arg:0);
  let stats = Kitten.stats s.Helpers.kitten in
  Alcotest.(check int) "one local" 1 stats.Kitten.syscalls_local

let test_mmap_allocates () =
  let s = native_stack () in
  let ctx = Helpers.ctx s 1 in
  let addr = Kitten.syscall ctx ~number:Syscall.nr_mmap ~arg:(4 * mib) in
  Alcotest.(check bool) "mapped address" true (addr > 0);
  Alcotest.(check bool) "usable" true
    (Memmap.believes_usable (Kitten.memmap s.Helpers.kitten) addr);
  (* the mapping is real: a store through it succeeds under protection *)
  let s2 = Helpers.boot_stack ~config:Covirt.Config.mem () in
  let ctx2 = Helpers.ctx s2 1 in
  let addr2 = Kitten.syscall ctx2 ~number:Syscall.nr_mmap ~arg:(4 * mib) in
  Kitten.store_addr ctx2 addr2;
  Alcotest.(check bool) "still running" true
    (Covirt_pisces.Enclave.is_running s2.Helpers.enclave);
  (* exhaustion surfaces as -ENOMEM, not a crash *)
  let huge = Kitten.syscall ctx ~number:Syscall.nr_mmap ~arg:(1 lsl 50) in
  Alcotest.(check int) "enomem" (-12) huge

let test_syscalls_forwarded () =
  let s = native_stack () in
  let ctx = Helpers.ctx s 1 in
  (* hobbes's default handler echoes the argument *)
  let ret = Kitten.syscall ctx ~number:Syscall.nr_write ~arg:123 in
  Alcotest.(check int) "forwarded result" 123 ret;
  let stats = Kitten.stats s.Helpers.kitten in
  Alcotest.(check int) "one forwarded" 1 stats.Kitten.syscalls_forwarded;
  Alcotest.(check int) "host serviced" 1
    (Covirt_hobbes.Hobbes.syscalls_serviced s.Helpers.hobbes)

let test_run_with_ticks () =
  let s = native_stack () in
  let ctx = Helpers.ctx s 1 in
  let ticks_before = (Kitten.stats s.Helpers.kitten).Kitten.ticks in
  (* burn ~0.5 simulated seconds at 10 Hz -> ~5 ticks *)
  let result =
    Kitten.run_with_ticks ctx (fun () ->
        Cpu.charge ctx.Kitten.cpu (Covirt_sim.Units.seconds_to_cycles ~ghz:1.7 0.5);
        17)
  in
  Alcotest.(check int) "result passes" 17 result;
  let ticks = (Kitten.stats s.Helpers.kitten).Kitten.ticks - ticks_before in
  Alcotest.(check bool) "ticks accounted" true (ticks >= 4 && ticks <= 6)

let test_irq_registration () =
  let s = native_stack () in
  let hits = ref 0 in
  Kitten.register_irq s.Helpers.kitten ~vector:0x55 (fun _ _ -> incr hits);
  let ctx = Helpers.ctx s 1 in
  Kitten.send_ipi ctx ~dest:2 ~vector:0x55;
  Alcotest.(check int) "handler ran" 1 !hits;
  (* unregistered vector counts as spurious *)
  Kitten.send_ipi ctx ~dest:2 ~vector:0x66;
  Alcotest.(check int) "spurious counted" 1
    (Kitten.stats s.Helpers.kitten).Kitten.spurious_irqs

let test_health_and_panic () =
  let s = native_stack () in
  Alcotest.(check bool) "healthy" true (Kitten.health s.Helpers.kitten = `Ok);
  Machine.mark_corrupted s.Helpers.machine
    ~enclave:(Kitten.enclave_id s.Helpers.kitten)
    ~cause:"test corruption";
  (match Kitten.health s.Helpers.kitten with
  | `Corrupted _ -> ()
  | `Ok -> Alcotest.fail "corruption not visible");
  match Kitten.assert_healthy s.Helpers.kitten with
  | exception Kitten.Kernel_panic _ -> ()
  | () -> Alcotest.fail "expected Kernel_panic"

let test_touch_believed_memory_guard () =
  let s = native_stack () in
  let ctx = Helpers.ctx s 1 in
  Alcotest.check_raises "unbelieved touch rejected"
    (Invalid_argument "Kitten.touch_believed_memory: kernel does not believe this")
    (fun () -> Kitten.touch_believed_memory ctx (1536 * mib))

let test_guest_boot_exit_counts () =
  (* Under Covirt, boot's cpuid/xsetbv must have trapped-and-emulated. *)
  let s = Helpers.boot_stack ~config:Covirt.Config.full () in
  match
    Covirt.Controller.instance_for s.Helpers.controller
      ~enclave_id:s.Helpers.enclave.Enclave.id
  with
  | None -> Alcotest.fail "no covirt instance"
  | Some inst ->
      let total_emul =
        List.fold_left
          (fun acc (_, hv) ->
            let exits = (Covirt.Hypervisor.vmcs hv).Vmcs.exits in
            acc
            + exits.(Vmcs.code Vmcs.Cpuid)
            + exits.(Vmcs.code Vmcs.Xsetbv))
          0 inst.Covirt.Controller.hypervisors
      in
      (* cpuid + xsetbv on each of 2 cores *)
      Alcotest.(check int) "emulations" 4 total_emul

let () =
  Alcotest.run "kitten"
    [
      ( "boot",
        [
          Alcotest.test_case "state" `Quick test_boot_state;
          Alcotest.test_case "transparency" `Quick test_boot_transparency;
          Alcotest.test_case "guest boot emulations" `Quick
            test_guest_boot_exit_counts;
        ] );
      ( "memory",
        [
          Alcotest.test_case "kalloc" `Quick test_kalloc_properties;
          Alcotest.test_case "kalloc near core" `Quick test_kalloc_near_core;
          Alcotest.test_case "memmap sync" `Quick test_memmap_sync_add_remove;
          Alcotest.test_case "phantom injection" `Quick
            test_memmap_phantom_injection;
          Alcotest.test_case "touch guard" `Quick test_touch_believed_memory_guard;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "local" `Quick test_syscalls_local;
          Alcotest.test_case "mmap allocates" `Quick test_mmap_allocates;
          Alcotest.test_case "forwarded" `Quick test_syscalls_forwarded;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "tick accounting" `Quick test_run_with_ticks;
          Alcotest.test_case "irq registration" `Quick test_irq_registration;
        ] );
      ( "health",
        [ Alcotest.test_case "corruption surfaces" `Quick test_health_and_panic ]
      );
    ]
