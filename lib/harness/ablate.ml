open Covirt_hw
open Covirt_pisces
open Covirt_kitten
open Covirt_workloads

let mib = Covirt_sim.Units.mib

(* ------------------------------------------------------------------ *)
(* EPT coalescing.                                                     *)

type coalescing_row = {
  ept_pages : string;
  gups : float;
  overhead_vs_native : float;
  leaves : int;
}

let gups_with ~quick config =
  Experiments.with_setup ~config ~layout:Experiments.layout_1x1 (fun setup ->
      let ctxs = Experiments.contexts setup in
      let log2_table = if quick then 22 else 25 in
      let gups =
        match Random_access.run ctxs ~log2_table () with
        | Ok r -> r.Random_access.gups
        | Error e -> failwith e
      in
      let leaves =
        match
          Covirt.Controller.instance_for setup.Experiments.controller
            ~enclave_id:setup.Experiments.enclave.Enclave.id
        with
        | Some { Covirt.Controller.ept_mgr = Some mgr; _ } ->
            let a, b, c = Covirt.Ept_manager.leaf_counts mgr in
            a + b + c
        | Some { Covirt.Controller.ept_mgr = None; _ } | None -> 0
      in
      (gups, leaves))

let coalescing ?(quick = false) ?domains () =
  let cases =
    [|
      ("native", Covirt.Config.native);
      ("1G (coalesced)", { Covirt.Config.mem with max_ept_page = Addr.Page_1g });
      ("2M cap", { Covirt.Config.mem with max_ept_page = Addr.Page_2m });
      ("4K only", { Covirt.Config.mem with max_ept_page = Addr.Page_4k });
    |]
  in
  (* The native baseline runs as shard 0 alongside the three EPT-page
     cases; each case is deterministic in its config (the shard seed is
     unused), and the overhead divide happens after the join. *)
  let measured =
    Covirt_fleet.Fleet.map ?domains ~seed:42 ~shards:(Array.length cases)
      (fun ~shard_seed:_ ~index -> gups_with ~quick (snd cases.(index)))
  in
  let native, _ = measured.(0) in
  List.init
    (Array.length cases - 1)
    (fun i ->
      let name = fst cases.(i + 1) in
      let gups, leaves = measured.(i + 1) in
      {
        ept_pages = name;
        gups;
        overhead_vs_native =
          Covirt_sim.Stats.relative_slowdown_of_rates ~baseline:native
            ~measured:gups;
        leaves;
      })

let coalescing_table rows =
  let t =
    Covirt_sim.Table.create
      ~columns:[ "EPT pages"; "GUPS"; "overhead vs native"; "EPT leaves" ]
  in
  List.iter
    (fun r ->
      Covirt_sim.Table.add_row t
        [
          r.ept_pages;
          Format.asprintf "%.5f" r.gups;
          Covirt_sim.Table.cell_pct r.overhead_vs_native;
          string_of_int r.leaves;
        ])
    rows;
  t

(* ------------------------------------------------------------------ *)
(* PIV vs full APIC virtualization.                                    *)

type ipi_row = {
  mode : string;
  cycles_per_doorbell : float;
  incoming_exits : int;
  cycles_per_device_rx : float;
}

let doorbell_run ~doorbells config =
  let machine = Machine.create ~zones:2 ~cores_per_zone:3
      ~mem_per_zone:(4 * Covirt_sim.Units.gib) () in
  let hobbes = Covirt_hobbes.Hobbes.create machine ~host_core:0 in
  let controller = Covirt.enable (Covirt_hobbes.Hobbes.pisces hobbes) ~config in
  let launch name cores zone =
    match
      Covirt_hobbes.Hobbes.launch_enclave hobbes ~name ~cores
        ~mem:[ (zone, 512 * mib) ] ()
    with
    | Ok pair -> pair
    | Error e -> failwith e
  in
  let producer = launch "producer" [ 1 ] 0 in
  let consumer = launch "consumer" [ 3 ] 1 in
  let channel =
    match
      Covirt_hobbes.Ipc.connect hobbes ~producer ~consumer ~name:"bell"
        ~ring_bytes:4096
    with
    | Ok ch -> ch
    | Error e -> failwith e
  in
  let prod_ctx = Kitten.context (snd producer) ~core:1 in
  let cons_cpu = Machine.cpu machine 3 in
  let start_prod = Cpu.rdtsc prod_ctx.Kitten.cpu in
  let start_cons = Cpu.rdtsc cons_cpu in
  for _ = 1 to doorbells do
    Covirt_hobbes.Ipc.send channel prod_ctx ~words:1
  done;
  assert (Covirt_hobbes.Ipc.receipts channel = doorbells);
  let cycles =
    Cpu.rdtsc prod_ctx.Kitten.cpu - start_prod
    + (Cpu.rdtsc cons_cpu - start_cons)
  in
  let incoming_exits =
    match
      Covirt.Controller.instance_for controller
        ~enclave_id:(fst consumer).Enclave.id
    with
    | Some inst ->
        List.fold_left
          (fun acc (_, hv) ->
            let exits = (Covirt.Hypervisor.vmcs hv).Vmcs.exits in
            acc + exits.(Vmcs.code Vmcs.External_interrupt))
          0 inst.Covirt.Controller.hypervisors
    | None -> 0
  in
  (* device-RX cost in the same configuration: a NIC MSI at the
     consumer core *)
  let nic = Nic.create machine ~name:"bench-nic" in
  Nic.bind_msi nic ~core:3 ~vector:0x62;
  (match
     Pisces.assign_device (Covirt_hobbes.Hobbes.pisces hobbes) (fst consumer)
       ~device:"bench-nic"
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let rx_before = Cpu.rdtsc cons_cpu in
  let rx_rounds = 100 in
  for _ = 1 to rx_rounds do
    match Nic.inject_rx machine nic with
    | Ok () -> ()
    | Error e -> failwith e
  done;
  let rx_cycles =
    float_of_int (Cpu.rdtsc cons_cpu - rx_before) /. float_of_int rx_rounds
  in
  ( float_of_int cycles /. float_of_int doorbells,
    incoming_exits,
    rx_cycles )

let piv_vs_full ?(doorbells = 1000) () =
  let cases =
    [
      ("native", Covirt.Config.native);
      ("vapic-full", { Covirt.Config.none with ipi = Covirt.Config.Ipi_vapic_full });
      ("piv", Covirt.Config.ipi);
    ]
  in
  List.map
    (fun (name, config) ->
      let cycles, exits, rx = doorbell_run ~doorbells config in
      {
        mode = name;
        cycles_per_doorbell = cycles;
        incoming_exits = exits;
        cycles_per_device_rx = rx;
      })
    cases

let piv_table rows =
  let t =
    Covirt_sim.Table.create
      ~columns:
        [ "delivery mode"; "cycles/doorbell"; "incoming-interrupt exits";
          "cycles/device RX" ]
  in
  List.iter
    (fun r ->
      Covirt_sim.Table.add_row t
        [
          r.mode;
          Format.asprintf "%.0f" r.cycles_per_doorbell;
          string_of_int r.incoming_exits;
          Format.asprintf "%.0f" r.cycles_per_device_rx;
        ])
    rows;
  t

(* ------------------------------------------------------------------ *)
(* Asynchronous vs synchronous configuration updates.                  *)

type sync_row = {
  size_bytes : int;
  async_us : float;
  sync_us : float;
  penalty : float;
}

(* Strawman synchronous design: every mapping update pauses every
   enclave core (NMI + exit round trip) and the EPT write happens on
   the enclave's critical path rather than overlapped on the host.
   We model it by installing an extra pre-map hook behind Covirt's
   that re-charges the EPT work to the caller and fires a doorbell per
   core. *)
let attach_with ~sync ~size =
  Experiments.with_setup ~config:Covirt.Config.mem_ipi
    ~layout:Experiments.layout_1x1 (fun setup ->
      let machine = setup.Experiments.machine in
      let pisces = Covirt_hobbes.Hobbes.pisces setup.Experiments.hobbes in
      if sync then begin
        let hooks = Pisces.hooks pisces in
        hooks.Hooks.pre_memory_map <-
          hooks.Hooks.pre_memory_map
          @ [
              (fun enclave region ->
                let caller = Machine.cpu machine (Enclave.bsp enclave) in
                (* serial EPT write cost on the enclave's critical path *)
                let entries = region.Region.len / Addr.page_size_4k in
                Cpu.charge caller
                  (entries * machine.Machine.model.Cost_model.ept_entry_update);
                (* and a trap of every enclave core *)
                List.iter
                  (fun core -> Machine.post_host_nmi machine ~dest:core)
                  enclave.Enclave.cores);
            ]
      end;
      (* export from a second enclave, attach, measure the caller *)
      match
        Covirt_hobbes.Hobbes.launch_enclave setup.Experiments.hobbes
          ~name:"exporter" ~cores:[ 9 ]
          ~mem:[ (1, (2 * Covirt_sim.Units.gib) + (2 * size)) ]
          ()
      with
      | Error e -> failwith e
      | Ok (exp_enclave, exp_kitten) -> (
          let base =
            match Kitten.kalloc exp_kitten ~bytes:size with
            | Ok b -> b
            | Error e -> failwith e
          in
          let xemem = Covirt_hobbes.Hobbes.xemem setup.Experiments.hobbes in
          (match
             Covirt_xemem.Xemem.export xemem
               ~exporter:
                 (Covirt_xemem.Name_service.Enclave_export exp_enclave.Enclave.id)
               ~name:"seg"
               ~pages:[ Region.make ~base ~len:size ]
           with
          | Ok _ -> ()
          | Error e -> failwith e);
          let caller =
            Machine.cpu machine (Enclave.bsp setup.Experiments.enclave)
          in
          let t0 = Cpu.rdtsc caller in
          match
            Covirt_xemem.Xemem.attach xemem setup.Experiments.enclave ~name:"seg"
          with
          | Error e -> failwith e
          | Ok _ ->
              Covirt_sim.Units.cycles_to_us
                ~ghz:machine.Machine.model.Cost_model.ghz
                (Cpu.rdtsc caller - t0)))

let sync_vs_async ?(quick = false) () =
  let sizes =
    List.init (if quick then 5 else 9) (fun i -> (1 lsl i) * 2 * mib)
  in
  List.map
    (fun size ->
      let async_us = attach_with ~sync:false ~size in
      let sync_us = attach_with ~sync:true ~size in
      {
        size_bytes = size;
        async_us;
        sync_us;
        penalty =
          Covirt_sim.Stats.relative_overhead ~baseline:async_us
            ~measured:sync_us;
      })
    sizes

let sync_table rows =
  let t =
    Covirt_sim.Table.create
      ~columns:
        [ "region size"; "async update (us)"; "sync strawman (us)"; "penalty" ]
  in
  List.iter
    (fun r ->
      Covirt_sim.Table.add_row t
        [
          Format.asprintf "%a" Covirt_sim.Units.pp_bytes r.size_bytes;
          Covirt_sim.Table.cell_f r.async_us;
          Covirt_sim.Table.cell_f r.sync_us;
          Covirt_sim.Table.cell_pct r.penalty;
        ])
    rows;
  t
