open Covirt_hw
open Covirt_pisces

type t = {
  machine : Machine.t;
  enclave : Enclave.t;
  page_table : Guest_pt.t;
  mutable believed : Region.Set.t;
  mutable heap_free : Region.Set.t;
  proxy : Proxy.t;
  mutable delegated : int;
}

let enclave_id t = t.enclave.Enclave.id
let memmap t = t.believed
let proxy t = t.proxy
let context_cpu t ~core = Machine.cpu t.machine core
let syscalls_delegated t = t.delegated

let kernel_reserved = 16 * Covirt_sim.Units.mib

let handle_host_msg t msg =
  let bsp = Machine.cpu t.machine (Enclave.bsp t.enclave) in
  let ack seq =
    Ctrl_channel.send_to_host t.machine ~enclave_cpu:bsp t.enclave.Enclave.channel
      (Message.Ack { seq })
  in
  Cpu.charge bsp 500;
  match msg with
  | Message.Add_memory { seq; region } ->
      t.believed <- Region.Set.add t.believed region;
      t.heap_free <- Region.Set.add t.heap_free region;
      ack seq
  | Message.Remove_memory { seq; region } ->
      t.believed <- Region.Set.remove t.believed region;
      t.heap_free <- Region.Set.remove t.heap_free region;
      ack seq
  | Message.Xemem_map { seq; _ } | Message.Xemem_unmap { seq; _ } ->
      (* IHK/McKernel shares through replication, not XEMEM *)
      ack seq
  | Message.Grant_ipi_vector { seq; _ } | Message.Revoke_ipi_vector { seq; _ }
  | Message.Assign_device { seq; _ } | Message.Revoke_device { seq; _ }
  | Message.Shutdown { seq } ->
      ack seq
  | Message.Syscall_reply _ -> ()

let boot_core_body instance_ref machine enclave (cpu : Cpu.t) ~bsp params =
  Machine.cpuid machine cpu;
  Machine.xsetbv machine cpu;
  Cpu.charge cpu 60_000 (* heavier bring-up: the IHK layer *);
  if bsp then begin
    let believed = Region.Set.of_list params.Boot_params.assigned_memory in
    let heap =
      match params.Boot_params.assigned_memory with
      | [] -> Region.Set.empty
      | first :: _ ->
          Region.Set.remove believed
            (Region.make ~base:first.Region.base ~len:kernel_reserved)
    in
    let t =
      {
        machine;
        enclave;
        page_table =
          Guest_pt.direct_map
            ~total_mem:(Numa.total_mem machine.Machine.topology);
        believed;
        heap_free = heap;
        proxy =
          Proxy.create machine ~host_cpu:(Machine.cpu machine 0);
        delegated = 0;
      }
    in
    instance_ref := Some t;
    enclave.Enclave.msg_handler <- Some (handle_host_msg t);
    Ctrl_channel.send_to_host machine ~enclave_cpu:cpu enclave.Enclave.channel
      Message.Ready
  end;
  (match !instance_ref with
  | Some t -> cpu.Cpu.guest_pt <- Some t.page_table
  | None -> ());
  Cpu.charge cpu 8_000

let make_kernel () =
  let instance_ref = ref None in
  let kernel =
    {
      Pisces.kernel_name = "mckernel";
      boot_core =
        (fun machine enclave cpu ~bsp params ->
          boot_core_body instance_ref machine enclave cpu ~bsp params);
    }
  in
  (kernel, fun () -> !instance_ref)

let alloc_app_memory t ~bytes =
  if bytes <= 0 then invalid_arg "Mckernel.alloc_app_memory";
  let bytes = Addr.page_up bytes ~size:Addr.page_size_4k in
  let candidate =
    Region.Set.to_list t.heap_free
    |> List.find_map (fun r ->
           let base = Addr.page_up r.Region.base ~size:Addr.page_size_2m in
           if base + bytes <= Region.limit r then
             Some (Region.make ~base ~len:bytes)
           else None)
  in
  match candidate with
  | None -> Error "mckernel: out of contiguous memory"
  | Some region ->
      t.heap_free <- Region.Set.remove t.heap_free region;
      (* the IHK contract: replicate before anything can reference it *)
      Proxy.mirror t.proxy region;
      Ok region

let syscall t ~core ~number ~buffer =
  let cpu = Machine.cpu t.machine core in
  t.delegated <- t.delegated + 1;
  (* trap into McKernel, marshal, IPI the host, wait for the proxy *)
  Cpu.charge cpu 900;
  Ctrl_channel.send_to_host t.machine ~enclave_cpu:cpu t.enclave.Enclave.channel
    (Message.Syscall_request { seq = -t.delegated; number; arg = 0 });
  let host = Machine.cpu t.machine 0 in
  let host_start = Cpu.rdtsc host in
  let ret = Proxy.delegate t.proxy ~number ~buffer in
  (* the caller blocks on the proxy *)
  Cpu.charge cpu (Cpu.rdtsc host - host_start);
  ret

let wild_write t ~core addr =
  Machine.store t.machine (Machine.cpu t.machine core) addr

let desync_mirror t region = Proxy.unmirror t.proxy region
