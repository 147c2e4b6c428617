open Covirt_hw
open Covirt_pisces

type stats = {
  mutable ticks : int;
  mutable syscalls_local : int;
  mutable syscalls_forwarded : int;
  mutable irqs : int;
  mutable spurious_irqs : int;
}

type t = {
  mach : Machine.t;
  enclave : Enclave.t;
  params : Boot_params.pisces;
  memmap : Memmap.t;
  page_table : Guest_pt.t;
  mutable heap_free : Region.Set.t;
  irq_handlers : (int, ctx -> int -> unit) Hashtbl.t;
  pending_replies : (int, int) Hashtbl.t;
  mutable host_poke : (unit -> unit) option;
  mutable next_seq : int;
  stats : stats;
}

and ctx = { machine : Machine.t; kernel : t; cpu : Cpu.t }

type context = ctx = { machine : Machine.t; kernel : t; cpu : Cpu.t }

exception Kernel_panic of { enclave : int; reason : string }

let machine t = t.mach
let enclave_id t = t.enclave.Enclave.id
let memmap t = t.memmap
let page_table t = t.page_table
let params t = t.params
let stats t = t.stats
let cores t = t.params.Boot_params.assigned_cores

(* Kitten reserves the first 16 MiB of its first region for the kernel
   image, page tables and boot structures; the heap starts above. *)
let kernel_reserved = 16 * Covirt_sim.Units.mib

let timer_vector = 0xef

let context t ~core =
  if not (List.mem core (cores t)) then invalid_arg "Kitten.context: bad core";
  { machine = t.mach; kernel = t; cpu = Machine.cpu t.mach core }

(* ------------------------------------------------------------------ *)
(* Interrupt service.                                                  *)

let isr t (cpu : Cpu.t) vector =
  let c = { machine = t.mach; kernel = t; cpu } in
  t.stats.irqs <- t.stats.irqs + 1;
  if vector = timer_vector then t.stats.ticks <- t.stats.ticks + 1
  else
    match Hashtbl.find_opt t.irq_handlers vector with
    | Some handler -> handler c vector
    | None -> t.stats.spurious_irqs <- t.stats.spurious_irqs + 1

let register_irq t ~vector handler = Hashtbl.replace t.irq_handlers vector handler

(* ------------------------------------------------------------------ *)
(* Control-channel message handling (runs on the boot core).           *)

let handle_host_msg t msg =
  let bsp = Machine.cpu t.mach (Enclave.bsp t.enclave) in
  let ack seq =
    Ctrl_channel.send_to_host t.mach ~enclave_cpu:bsp t.enclave.Enclave.channel
      (Message.Ack { seq })
  in
  Cpu.charge bsp 400 (* message-loop processing *);
  match msg with
  | Message.Add_memory { seq; region } ->
      Memmap.add t.memmap region;
      t.heap_free <- Region.Set.add t.heap_free region;
      ack seq
  | Message.Remove_memory { seq; region } ->
      (* The direct map is static; only the allocator state changes.
         (This is why a stale straggler access still translates in the
         kernel's own tables — and why only the EPT can veto it.) *)
      Memmap.remove t.memmap region;
      t.heap_free <- Region.Set.remove t.heap_free region;
      ack seq
  | Message.Xemem_map { seq; segid; pages } ->
      Memmap.add_shared t.memmap ~segid pages;
      ack seq
  | Message.Xemem_unmap { seq; segid; pages } ->
      ignore pages;
      Memmap.remove_shared t.memmap ~segid;
      ack seq
  | Message.Grant_ipi_vector { seq; _ }
  | Message.Revoke_ipi_vector { seq; _ } ->
      ack seq
  | Message.Assign_device { seq; device; window } ->
      Memmap.add_device t.memmap ~name:device window;
      (* the driver maps the BAR into the kernel address space *)
      Guest_pt.map_region t.page_table window;
      ack seq
  | Message.Revoke_device { seq; device; window } ->
      Memmap.remove_device t.memmap ~name:device;
      Guest_pt.unmap_region t.page_table window;
      List.iter
        (fun core ->
          Tlb.flush_range (Machine.cpu t.mach core).Cpu.tlb window)
        (cores t);
      ack seq
  | Message.Syscall_reply { seq; ret } ->
      Hashtbl.replace t.pending_replies seq ret
  | Message.Shutdown { seq } -> ack seq

(* ------------------------------------------------------------------ *)
(* Boot.                                                               *)

let boot_core_body instance_ref machine enclave (cpu : Cpu.t) ~bsp params =
  (* Early hardware bring-up: these instructions trap-and-emulate
     under Covirt and run natively otherwise; the code path is
     identical (transparency). *)
  Machine.cpuid machine cpu;
  Machine.xsetbv machine cpu;
  ignore (Machine.rdmsr machine cpu Msr.ia32_pat);
  Cpu.charge cpu 50_000 (* per-core init: GDT/IDT, paging setup *);
  if bsp then begin
    let t =
      {
        mach = machine;
        enclave;
        params;
        memmap = Memmap.create params.Boot_params.assigned_memory;
        page_table =
          Guest_pt.direct_map
            ~total_mem:(Numa.total_mem machine.Machine.topology);
        heap_free = Region.Set.empty;
        irq_handlers = Hashtbl.create 8;
        pending_replies = Hashtbl.create 8;
        host_poke = None;
        next_seq = 0;
        stats =
          {
            ticks = 0;
            syscalls_local = 0;
            syscalls_forwarded = 0;
            irqs = 0;
            spurious_irqs = 0;
          };
      }
    in
    (* Heap: everything except the kernel-reserved head of the first
       region. *)
    let heap =
      match params.Boot_params.assigned_memory with
      | [] -> Region.Set.empty
      | first :: _ ->
          Region.Set.remove
            (Region.Set.of_list params.Boot_params.assigned_memory)
            (Region.make ~base:first.Region.base ~len:kernel_reserved)
    in
    t.heap_free <- heap;
    instance_ref := Some t;
    (* Touch the boot-parameter page (exercises translation under the
       freshly built virtualization context). *)
    Machine.load machine cpu
      (params.Boot_params.entry_addr - Addr.page_size_4k);
    enclave.Enclave.msg_handler <- Some (handle_host_msg t);
    Ctrl_channel.send_to_host machine ~enclave_cpu:cpu enclave.Enclave.channel
      Message.Ready
  end;
  (match !instance_ref with
  | Some t ->
      cpu.Cpu.isr <- Some (isr t);
      (* load CR3: every core runs on the shared kernel page table *)
      cpu.Cpu.guest_pt <- Some t.page_table
  | None -> ());
  Cpu.charge cpu 10_000 (* idle loop entry *)

let make_kernel () =
  let instance_ref = ref None in
  let kernel =
    {
      Pisces.kernel_name = "kitten";
      boot_core =
        (fun machine enclave cpu ~bsp params ->
          boot_core_body instance_ref machine enclave cpu ~bsp params);
    }
  in
  (kernel, fun () -> !instance_ref)

(* ------------------------------------------------------------------ *)
(* Memory allocation.                                                  *)

let kalloc ?near_core t ~bytes =
  if bytes <= 0 then invalid_arg "Kitten.kalloc";
  let bytes = Addr.page_up bytes ~size:Addr.page_size_4k in
  let topology = t.mach.Machine.topology in
  let fits r =
    let base = Addr.page_up r.Region.base ~size:Addr.page_size_2m in
    if base + bytes <= Region.limit r then Some (Region.make ~base ~len:bytes)
    else None
  in
  let regions = Region.Set.to_list t.heap_free in
  let preferred =
    match near_core with
    | None -> []
    | Some core ->
        let zone = Numa.zone_of_core topology ~core in
        List.filter
          (fun r -> Numa.zone_of_addr topology r.Region.base = zone)
          regions
  in
  let candidate =
    match List.find_map fits preferred with
    | Some _ as found -> found
    | None -> List.find_map fits regions
  in
  match candidate with
  | None ->
      Error
        (Format.asprintf "kalloc: no contiguous %a available"
           Covirt_sim.Units.pp_bytes bytes)
  | Some region ->
      t.heap_free <- Region.Set.remove t.heap_free region;
      Ok region.Region.base

(* ------------------------------------------------------------------ *)
(* Timer accounting.                                                   *)

let max_simulated_ticks = 10_000

let run_with_ticks (c : ctx) f =
  let start = Cpu.rdtsc c.cpu in
  let result = f () in
  let elapsed = Cpu.rdtsc c.cpu - start in
  let hz = Apic.timer_hz c.cpu.Cpu.apic in
  if hz > 0.0 then begin
    let seconds =
      Covirt_sim.Units.cycles_to_seconds
        ~ghz:c.machine.Machine.model.Cost_model.ghz elapsed
    in
    let ticks = int_of_float (seconds *. hz) in
    let simulated = min ticks max_simulated_ticks in
    for _ = 1 to simulated do
      Machine.timer_tick c.machine c.cpu
    done;
    if ticks > simulated then
      Cpu.charge c.cpu
        ((ticks - simulated) * Machine.timer_tick_cost c.machine c.cpu)
  end;
  result

(* ------------------------------------------------------------------ *)
(* System calls.                                                       *)

let syscall (c : ctx) ~number ~arg =
  let t = c.kernel in
  match Syscall.disposition number with
  | Syscall.Local ->
      t.stats.syscalls_local <- t.stats.syscalls_local + 1;
      Cpu.charge c.cpu Syscall.local_cost_cycles;
      if number = Syscall.nr_getpid then 1
      else if number = Syscall.nr_gettimeofday
              || number = Syscall.nr_clock_gettime
      then Cpu.rdtsc c.cpu
      else if number = Syscall.nr_mmap || number = Syscall.nr_brk then
        (* anonymous mappings come straight from the contiguous
           allocator: Kitten has no demand paging *)
        match kalloc ~near_core:c.cpu.Cpu.id t ~bytes:(max arg 4096) with
        | Ok addr -> addr
        | Error _ -> -12 (* -ENOMEM *)
      else 0
  | Syscall.Forwarded -> (
      t.stats.syscalls_forwarded <- t.stats.syscalls_forwarded + 1;
      t.next_seq <- t.next_seq - 1;
      (* Negative sequence space: enclave-originated, never collides
         with the host's positive sequences. *)
      let seq = t.next_seq in
      Ctrl_channel.send_to_host t.mach ~enclave_cpu:c.cpu
        t.enclave.Enclave.channel
        (Message.Syscall_request { seq; number; arg });
      (match t.host_poke with Some poke -> poke () | None -> ());
      match Hashtbl.find_opt t.pending_replies seq with
      | Some ret ->
          Hashtbl.remove t.pending_replies seq;
          ret
      | None -> -11 (* -EAGAIN: host never serviced the request *))
  | Syscall.Unsupported -> -38 (* -ENOSYS *)

let set_host_poke t poke = t.host_poke <- Some poke

let heartbeat (c : ctx) =
  Ctrl_channel.send_to_host c.machine ~enclave_cpu:c.cpu
    c.kernel.enclave.Enclave.channel
    (Message.Heartbeat { tsc = Cpu.rdtsc c.cpu })

(* ------------------------------------------------------------------ *)
(* IPIs.                                                               *)

let send_ipi (c : ctx) ~dest ~vector =
  Machine.send_ipi c.machine ~from:c.cpu ~dest ~vector ~kind:Apic.Fixed

(* ------------------------------------------------------------------ *)
(* Health.                                                             *)

let health t =
  match Machine.is_corrupted t.mach ~enclave:t.enclave.Enclave.id with
  | Some cause -> `Corrupted cause
  | None -> `Ok

let assert_healthy t =
  match health t with
  | `Ok -> ()
  | `Corrupted reason ->
      raise (Kernel_panic { enclave = t.enclave.Enclave.id; reason })

(* ------------------------------------------------------------------ *)
(* Fault injectors.                                                    *)

let load_addr (c : ctx) addr = Machine.load c.machine c.cpu addr
let store_addr (c : ctx) addr = Machine.store c.machine c.cpu addr
let inject_phantom_region t region = Memmap.inject_phantom t.memmap region

let touch_believed_memory (c : ctx) addr =
  if not (Memmap.believes_usable c.kernel.memmap addr) then
    invalid_arg "Kitten.touch_believed_memory: kernel does not believe this";
  store_addr c addr

let spin_wedged (c : ctx) ~cycles =
  if cycles < 0 then invalid_arg "Kitten.spin_wedged";
  (* A livelocked kernel: burns time without trapping, messaging or
     taking ticks — invisible to containment, visible to the watchdog. *)
  Cpu.charge c.cpu cycles

let wrmsr_sensitive (c : ctx) =
  Machine.wrmsr c.machine c.cpu Msr.ia32_smm_monitor_ctl 0xdeadL

let out_reset_port (c : ctx) =
  Machine.outb c.machine c.cpu Io_port.reset_port 0x6

let trigger_double_fault (c : ctx) =
  Machine.raise_abort c.machine c.cpu ~what:"double fault"

let poke_device (c : ctx) ~name ~offset =
  (* a device driver writing a register in its BAR *)
  match Memmap.device_window c.kernel.memmap ~name with
  | None -> invalid_arg (Printf.sprintf "Kitten.poke_device: no device %S" name)
  | Some window ->
      if offset < 0 || offset >= window.Region.len then
        invalid_arg "Kitten.poke_device: offset outside BAR";
      store_addr c (window.Region.base + offset)

let poke_foreign_mmio (c : ctx) addr =
  (* the device-driver bug class: an errant MMIO write to hardware the
     enclave was never given.  The kernel direct map does not cover
     MMIO space, so the buggy driver also maps the window first --
     which is exactly what buggy drivers do. *)
  Guest_pt.map_region c.kernel.page_table
    (Region.make
       ~base:(Addr.page_down addr ~size:Addr.page_size_4k)
       ~len:Addr.page_size_4k);
  store_addr c addr
