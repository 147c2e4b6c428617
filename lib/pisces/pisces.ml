open Covirt_hw

type kernel = {
  kernel_name : string;
  boot_core :
    Machine.t -> Enclave.t -> Cpu.t -> bsp:bool -> Boot_params.pisces -> unit;
}

type crash = { enclave_id : int; cpu_id : int; reason : string }

type t = {
  machine : Machine.t;
  host_core : int;
  hooks : Hooks.t;
  mutable enclaves : Enclave.t list;
  mutable next_id : int;
  mutable syscall_handler : (number:int -> arg:int -> int) option;
}

let create machine ~host_core =
  if host_core < 0 || host_core >= Machine.ncores machine then
    invalid_arg "Pisces.create: bad host core";
  {
    machine;
    host_core;
    hooks = Hooks.create ();
    enclaves = [];
    next_id = 1;
    syscall_handler = None;
  }

let machine t = t.machine
let host_cpu t = Machine.cpu t.machine t.host_core
(* Read several times per op by the load generator and by
   bench/e2e's per-op clock: plain field reads, so they stay cheap in
   the dev profile, where -opaque stops cross-module inlining. *)
let host_tsc t = t.machine.Machine.cores.(t.host_core).Cpu.tsc
let core_tsc t core = t.machine.Machine.cores.(core).Cpu.tsc
let tsc_ghz t = t.machine.Machine.model.Cost_model.ghz
let hooks t = t.hooks
let enclaves t = t.enclaves
let find_enclave t id = List.find_opt (fun e -> e.Enclave.id = id) t.enclaves

let trace t fmt =
  let cpu = host_cpu t in
  Covirt_sim.Trace.recordf t.machine.Machine.trace ~tsc:cpu.Cpu.tsc
    ~cpu:cpu.Cpu.id ~severity:Covirt_sim.Trace.Info fmt

(* ------------------------------------------------------------------ *)
(* Enclave creation.                                                   *)

let core_available t id =
  if id = t.host_core then Error "core is the host control core"
  else if id < 0 || id >= Machine.ncores t.machine then Error "no such core"
  else
    let cpu = Machine.cpu t.machine id in
    if not (Owner.equal cpu.Cpu.owner Owner.Host) then
      Error (Printf.sprintf "core %d already assigned" id)
    else Ok ()

let create_enclave t ~name ~cores ~mem ?(timer_hz = 10.0) () =
  let rec check_cores = function
    | [] -> Ok ()
    | c :: rest -> (
        match core_available t c with
        | Ok () -> check_cores rest
        | Error _ as e -> e)
  in
  match check_cores cores with
  | Error e -> Error e
  | Ok () -> (
      let id = t.next_id in
      let enclave = Enclave.make ~id ~name ~cores in
      let rec alloc_all acc = function
        | [] -> Ok (List.rev acc)
        | (zone, len) :: rest -> (
            match
              Phys_mem.alloc t.machine.Machine.mem ~owner:(Owner.Enclave id)
                ~zone ~len
            with
            | Ok region -> alloc_all (region :: acc) rest
            | Error e ->
                (* Roll back partial allocations. *)
                List.iter (Phys_mem.release t.machine.Machine.mem) acc;
                Error e)
      in
      match alloc_all [] mem with
      | Error e -> Error e
      | Ok regions ->
          t.next_id <- t.next_id + 1;
          enclave.Enclave.memory <- Region.Set.of_list regions;
          enclave.Enclave.timer_hz <- timer_hz;
          t.enclaves <- enclave :: t.enclaves;
          trace t "created enclave %d (%s)" id name;
          Hooks.fire t.hooks.Hooks.on_enclave_created enclave;
          Ok enclave)

(* ------------------------------------------------------------------ *)
(* Boot.                                                               *)

let entry_offset = 0x100000 (* co-kernel image loaded 1 MiB into the region *)

let boot t enclave ~kernel =
  if enclave.Enclave.state <> Enclave.Created then
    Error "enclave not in created state"
  else begin
    enclave.Enclave.state <- Enclave.Booting;
    let first_region =
      match Region.Set.to_list enclave.Enclave.memory with
      | r :: _ -> r
      | [] -> invalid_arg "Pisces.boot: enclave has no memory"
    in
    let timer_hz = enclave.Enclave.timer_hz in
    let params =
      Boot_params.make_pisces ~enclave_id:enclave.Enclave.id
        ~entry_addr:(first_region.Region.base + entry_offset)
        ~assigned_cores:enclave.Enclave.cores
        ~assigned_memory:(Region.Set.to_list enclave.Enclave.memory)
        ~channel:enclave.Enclave.channel ~timer_hz
    in
    enclave.Enclave.boot_params <- Some params;
    let owner = Owner.Enclave enclave.Enclave.id in
    List.iter
      (fun core ->
        let cpu = Machine.cpu t.machine core in
        cpu.Cpu.owner <- owner;
        Apic.set_timer_hz cpu.Cpu.apic timer_hz)
      enclave.Enclave.cores;
    let bsp_core = Enclave.bsp enclave in
    List.iter
      (fun core ->
        let cpu = Machine.cpu t.machine core in
        let bsp = core = bsp_core in
        let jump () = kernel.boot_core t.machine enclave cpu ~bsp params in
        match t.hooks.Hooks.boot_interposer with
        | None -> jump ()
        | Some interpose -> interpose enclave cpu ~bsp jump)
      enclave.Enclave.cores;
    (* The kernel reports ready on its control channel once the boot
       core finishes initialization. *)
    let ready =
      List.exists
        (function Message.Ready -> true | _ -> false)
        (Ctrl_channel.drain_host_side enclave.Enclave.channel)
    in
    if ready then begin
      enclave.Enclave.state <- Enclave.Running;
      trace t "enclave %d (%s) running %s" enclave.Enclave.id
        enclave.Enclave.name kernel.kernel_name;
      Ok ()
    end
    else Error "co-kernel never reported ready"
  end

(* ------------------------------------------------------------------ *)
(* Synchronous control operations.                                     *)

let deliver_pending t enclave =
  match enclave.Enclave.msg_handler with
  | None -> ()
  | Some handler ->
      List.iter handler (Ctrl_channel.drain_enclave_side enclave.Enclave.channel);
      ignore t

let transact t enclave msg ~seq =
  Ctrl_channel.send_to_enclave t.machine ~host_cpu:(host_cpu t)
    enclave.Enclave.channel msg;
  deliver_pending t enclave;
  Ctrl_channel.take_ack enclave.Enclave.channel ~seq

let charge_page_list t ?(overlapped = 0) pages =
  let frames =
    List.fold_left
      (fun acc r -> acc + (r.Region.len / Addr.page_size_4k))
      0 pages
  in
  let cycles = frames * t.machine.Machine.model.Cost_model.page_list_per_page in
  Cpu.charge (host_cpu t) (max 0 (cycles - overlapped))

let add_memory t enclave ~zone ~len =
  if not (Enclave.is_running enclave) then Error "enclave not running"
  else
    match
      Phys_mem.alloc t.machine.Machine.mem
        ~owner:(Owner.Enclave enclave.Enclave.id) ~zone ~len
    with
    | Error e -> Error e
    | Ok region -> (
        (* Protection-before-visibility: hooks map the region into the
           virtualization context before the kernel hears about it.
           The hook work (EPT updates) proceeds concurrently with the
           page-frame-list marshalling, so the critical path pays the
           longer of the two — the paper's "masked by other
           operations". *)
        let hook_start = Cpu.rdtsc (host_cpu t) in
        List.iter
          (fun f -> f enclave region)
          t.hooks.Hooks.pre_memory_map;
        let hook_cycles = Cpu.rdtsc (host_cpu t) - hook_start in
        let seq = Enclave.next_seq enclave in
        charge_page_list t ~overlapped:hook_cycles [ region ];
        match transact t enclave (Message.Add_memory { seq; region }) ~seq with
        | Ok () ->
            enclave.Enclave.memory <- Region.Set.add enclave.Enclave.memory region;
            Ok region
        | Error e ->
            Phys_mem.release t.machine.Machine.mem region;
            Error e)

let remove_memory t enclave region =
  if not (Enclave.is_running enclave) then Error "enclave not running"
  else if
    not
      (Region.Set.mem_range enclave.Enclave.memory ~base:region.Region.base
         ~len:region.Region.len)
  then Error "region not assigned to enclave"
  else
    let seq = Enclave.next_seq enclave in
    charge_page_list t [ region ];
    match transact t enclave (Message.Remove_memory { seq; region }) ~seq with
    | Error e -> Error e
    | Ok () ->
        (* Ack received: the kernel dropped the region from its map.
           Now the hooks pull it from the virtualization context (with
           TLB flushes) and only then do the frames return to the host
           pool. *)
        List.iter (fun f -> f enclave region) t.hooks.Hooks.post_memory_unmap;
        enclave.Enclave.memory <- Region.Set.remove enclave.Enclave.memory region;
        Phys_mem.release t.machine.Machine.mem region;
        Ok ()

let map_shared t enclave ~segid ~pages =
  if not (Enclave.is_running enclave) then Error "enclave not running"
  else begin
    let hook_start = Cpu.rdtsc (host_cpu t) in
    List.iter
      (fun region ->
        List.iter (fun f -> f enclave region) t.hooks.Hooks.pre_memory_map)
      pages;
    let hook_cycles = Cpu.rdtsc (host_cpu t) - hook_start in
    let seq = Enclave.next_seq enclave in
    charge_page_list t ~overlapped:hook_cycles pages;
    match transact t enclave (Message.Xemem_map { seq; segid; pages }) ~seq with
    | Ok () ->
        enclave.Enclave.shared <-
          List.fold_left Region.Set.add enclave.Enclave.shared pages;
        Ok ()
    | Error e -> Error e
  end

let unmap_shared t enclave ~segid ~pages ?(skip_enclave_notify = false) () =
  if not (Enclave.is_running enclave) then Error "enclave not running"
  else begin
    let notify_result =
      if skip_enclave_notify then Ok ()
        (* The war-story bug: the co-kernel is never told, its
           believed map keeps the stale segment. *)
      else begin
        let seq = Enclave.next_seq enclave in
        charge_page_list t pages;
        transact t enclave (Message.Xemem_unmap { seq; segid; pages }) ~seq
      end
    in
    match notify_result with
    | Error e -> Error e
    | Ok () ->
        List.iter
          (fun region ->
            List.iter
              (fun f -> f enclave region)
              t.hooks.Hooks.post_memory_unmap)
          pages;
        enclave.Enclave.shared <-
          List.fold_left Region.Set.remove enclave.Enclave.shared pages;
        Ok ()
  end

let assign_device t enclave ~device =
  if not (Enclave.is_running enclave) then Error "enclave not running"
  else
    match Phys_mem.find_device t.machine.Machine.mem ~name:device with
    | None -> Error (Printf.sprintf "no device %S" device)
    | Some window -> (
        match Phys_mem.owner_at t.machine.Machine.mem window.Region.base with
        | Owner.Device _ ->
            Phys_mem.chown t.machine.Machine.mem window
              (Owner.Enclave enclave.Enclave.id);
            List.iter
              (fun f -> f enclave window)
              t.hooks.Hooks.pre_memory_map;
            let seq = Enclave.next_seq enclave in
            (match
               transact t enclave
                 (Message.Assign_device { seq; device; window })
                 ~seq
             with
            | Ok () ->
                enclave.Enclave.devices <-
                  (device, window) :: enclave.Enclave.devices;
                Ok window
            | Error e ->
                Phys_mem.chown t.machine.Machine.mem window
                  (Owner.Device device);
                Error e)
        | Owner.Host | Owner.Enclave _ | Owner.Free ->
            Error (Printf.sprintf "device %S already delegated" device))

let revoke_device t enclave ~device =
  if not (Enclave.is_running enclave) then Error "enclave not running"
  else
    match List.assoc_opt device enclave.Enclave.devices with
    | None -> Error (Printf.sprintf "device %S not held by enclave" device)
    | Some window -> (
        let seq = Enclave.next_seq enclave in
        match
          transact t enclave (Message.Revoke_device { seq; device; window }) ~seq
        with
        | Error e -> Error e
        | Ok () ->
            List.iter
              (fun f -> f enclave window)
              t.hooks.Hooks.post_memory_unmap;
            enclave.Enclave.devices <-
              List.remove_assoc device enclave.Enclave.devices;
            Phys_mem.chown t.machine.Machine.mem window (Owner.Device device);
            Ok ())

let grant_ipi_vector t enclave ~vector ~peer_core =
  if not (Enclave.is_running enclave) then Error "enclave not running"
  else begin
    List.iter
      (fun f -> f enclave ~vector ~peer_core)
      t.hooks.Hooks.pre_vector_grant;
    let seq = Enclave.next_seq enclave in
    match
      transact t enclave
        (Message.Grant_ipi_vector { seq; vector; peer_core })
        ~seq
    with
    | Ok () ->
        enclave.Enclave.granted_vectors <-
          (vector, peer_core) :: enclave.Enclave.granted_vectors;
        Ok ()
    | Error e -> Error e
  end

let revoke_ipi_vector ?peer_core t enclave ~vector =
  if not (Enclave.is_running enclave) then Error "enclave not running"
  else
    let seq = Enclave.next_seq enclave in
    match
      transact t enclave
        (Message.Revoke_ipi_vector { seq; vector; dest = peer_core })
        ~seq
    with
    | Ok () ->
        enclave.Enclave.granted_vectors <-
          List.filter
            (fun (v, d) ->
              v <> vector
              || match peer_core with Some pc -> d <> pc | None -> false)
            enclave.Enclave.granted_vectors;
        List.iter
          (fun f -> f enclave ~vector ~dest:peer_core)
          t.hooks.Hooks.post_vector_revoke;
        Ok ()
    | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Syscall forwarding (host side).                                     *)

let set_syscall_handler t handler = t.syscall_handler <- Some handler

let service_channel ?max t enclave =
  let messages =
    match max with
    | None -> Ctrl_channel.drain_host_side enclave.Enclave.channel
    | Some n -> Ctrl_channel.drain_host_side_n enclave.Enclave.channel ~max:n
  in
  let serviced = ref 0 in
  List.iter
    (fun msg ->
      match msg with
      | Message.Syscall_request { seq; number; arg } ->
          incr serviced;
          let ret =
            match t.syscall_handler with
            | Some handler -> handler ~number ~arg
            | None -> -38 (* -ENOSYS *)
          in
          Ctrl_channel.send_to_enclave t.machine ~host_cpu:(host_cpu t)
            enclave.Enclave.channel
            (Message.Syscall_reply { seq; ret });
          deliver_pending t enclave
      | Message.Console line ->
          incr serviced;
          trace t "enclave %d console: %s" enclave.Enclave.id line
      | Message.Heartbeat _ ->
          (* Liveness only: the channel already recorded the activity
             at send time; nothing to service. *)
          ()
      | Message.Ready | Message.Ack _ | Message.Nack _ -> ())
    messages;
  !serviced

(* ------------------------------------------------------------------ *)
(* Teardown and crash handling.                                        *)

let release_resources t enclave =
  Region.Set.iter
    (fun r -> Phys_mem.release t.machine.Machine.mem r)
    enclave.Enclave.memory;
  List.iter
    (fun (device, window) ->
      Phys_mem.chown t.machine.Machine.mem window (Owner.Device device))
    enclave.Enclave.devices;
  enclave.Enclave.devices <- [];
  enclave.Enclave.memory <- Region.Set.empty;
  enclave.Enclave.shared <- Region.Set.empty;
  (* Per-vector grant state must not outlive the enclave: a dead
     enclave with live grants is exactly the stale-grant violation the
     static verifier hunts. *)
  enclave.Enclave.granted_vectors <- [];
  List.iter
    (fun core ->
      let cpu = Machine.cpu t.machine core in
      Vmx.teardown cpu;
      (* A relaunch gets a fresh EPT, so the dead enclave's translations
         must not survive in the core's TLB: a stale hit would reach a
         page that is no longer the enclave's without an EPT check.
         Charged nothing — the entries are simply unreachable. *)
      Tlb.flush_all cpu.Cpu.tlb;
      cpu.Cpu.owner <- Owner.Host;
      cpu.Cpu.isr <- None;
      cpu.Cpu.guest_pt <- None;
      Apic.set_timer_hz cpu.Cpu.apic 0.0)
    enclave.Enclave.cores

(* The registry must hold live enclaves only: with thousands of
   tenants cycling through create/destroy, a grow-only list makes
   [find_enclave] O(everything that ever existed) and is itself a
   monotonic leak.  The caller's [Enclave.t] record stays valid (state
   records the outcome); it just no longer appears in [enclaves]. *)
let forget t enclave =
  t.enclaves <-
    List.filter (fun e -> e.Enclave.id <> enclave.Enclave.id) t.enclaves

let destroy t enclave =
  (if Enclave.is_running enclave then
     let seq = Enclave.next_seq enclave in
     ignore (transact t enclave (Message.Shutdown { seq }) ~seq));
  Hooks.fire t.hooks.Hooks.on_enclave_destroyed enclave;
  release_resources t enclave;
  enclave.Enclave.state <- Enclave.Stopped;
  forget t enclave;
  trace t "enclave %d destroyed" enclave.Enclave.id

let reclaim_crashed t enclave ~reason =
  Hooks.fire t.hooks.Hooks.on_enclave_destroyed enclave;
  release_resources t enclave;
  enclave.Enclave.state <- Enclave.Crashed reason;
  forget t enclave;
  trace t "enclave %d reclaimed after crash: %s" enclave.Enclave.id reason

let run_guarded t f =
  try Ok (f ()) with
  | Vmx.Vm_terminated { cpu_id; enclave; reason } ->
      (match find_enclave t enclave with
      | Some e -> reclaim_crashed t e ~reason
      | None -> ());
      Error { enclave_id = enclave; cpu_id; reason }

let pp_crash ppf { enclave_id; cpu_id; reason } =
  Format.fprintf ppf "enclave %d terminated on cpu %d: %s" enclave_id cpu_id
    reason
