(* The evaluation harness: regenerates every table and figure of the
   paper, the ablation studies, and a set of Bechamel microbenchmarks
   of Covirt's hot paths.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig5    # one experiment
     dune exec bench/main.exe -- quick   # everything, reduced sizes

   Flags:
     --json               write BENCH_covirt.json (harness wall-clocks
                          + Bechamel ns/op estimates)
     --emit-baseline f    snapshot harness wall-clocks as TSV
     --check f            exit 1 if any harness regressed >25% vs f
     --trace-out f        enable observability and write a Chrome
                          trace_event JSON of the run (do not combine
                          with --check: tracing adds recording work)
     --gc-stats f         write per-microbench minor words/op and the
                          process GC counters as TSV (CI artifact)
     --domains N          fleet placement for the sharded harnesses
                          (default Domain.recommended_domain_count);
                          changes wall-clocks only, never a result byte

   Experiments: table1 fig3 fig4 fig5 fig6 fig7 fig8
                ablate-coalesce ablate-piv ablate-sync fleet bechamel *)

open Covirt_harness

let section title =
  Format.printf "@.=== %s ===@.@." title

(* Fleet placement for the sharded harnesses, set by --domains.  This
   is physical placement only: any value renders the same bytes. *)
let domains_arg : int option ref = ref None

let run_table1 () =
  section "Table I: Benchmark Versions and Parameters";
  let t =
    Covirt_sim.Table.create ~columns:[ "Benchmark Name"; "Version"; "Parameters" ]
  in
  List.iter
    (fun (name, version, params) ->
      Covirt_sim.Table.add_row t [ name; version; params ])
    Experiments.table1;
  Covirt_sim.Table.print t

let run_fig3 ~quick () =
  section "Fig. 3: Selfish-Detour noise profiles";
  let rows = Fig3.run ~quick ?domains:!domains_arg () in
  Covirt_sim.Table.print_auto (Fig3.table rows);
  Fig3.print_scatter rows ~duration_s:(if quick then 0.5 else 2.0);
  Format.printf "@.";
  Fig3.print_histograms rows;
  Format.printf
    "Paper: \"The different configurations show little variation in their@.\
     noise profiles\" — detour counts are identical; only interrupt@.\
     delivery stretches under full interception.@."

let run_fig4 ~quick () =
  section "Fig. 4: XEMEM attach delay vs region size";
  let points = Fig4.run ~quick () in
  Covirt_sim.Table.print_auto (Fig4.table points);
  Format.printf
    "Paper: \"Covirt imposes little to no overhead for this range of@.\
     region sizes\" — the controller's coalesced EPT update is masked@.\
     by the page-frame-list transmission both configurations pay.@."

let run_fig5 ~quick () =
  section "Fig. 5(a): STREAM";
  let rows = Fig5.run ~quick ?domains:!domains_arg () in
  Covirt_sim.Table.print_auto (Fig5.stream_table rows);
  section "Fig. 5(b): RandomAccess";
  Covirt_sim.Table.print_auto (Fig5.gups_table rows);
  Format.printf
    "Paper: STREAM comparable to native in all configurations;@.\
     RandomAccess worst case 3.1%% (memory+IPI), memory-only 1.8%%.@."

let run_fig6 ~quick () =
  section "Fig. 6: MiniFE scaling over CPU-core/NUMA-zone layouts";
  Covirt_sim.Table.print_auto (Fig6.table (Fig6.run ~quick ()));
  Format.printf
    "Paper: \"Covirt imposes little to no overhead on MiniFE across all@.\
     configurations.\"@."

let run_fig7 ~quick () =
  section "Fig. 7: HPCG scaling over CPU-core/NUMA-zone layouts";
  let rows = Fig7.run ~quick () in
  Covirt_sim.Table.print_auto (Fig7.table rows);
  Format.printf
    "Worst overhead across layouts and configs: %.2f%% (paper: 1.4%%).@."
    (100.0 *. Fig7.worst_overhead rows)

let run_fig8 ~quick () =
  section "Fig. 8: LAMMPS loop times (8 cores / 2 NUMA zones)";
  let rows = Fig8.run ~quick () in
  Covirt_sim.Table.print_auto (Fig8.table rows);
  Format.printf
    "Chute most sensitive: %b (paper: \"Chute shows the most sensitivity@.\
     to the protections being enabled, with the native and no-feature@.\
     configurations performing the best\").@."
    (Fig8.chute_is_most_sensitive rows)

let run_ablate_coalesce ~quick () =
  section "Ablation: EPT large-page coalescing (RandomAccess)";
  Covirt_sim.Table.print_auto
    (Ablate.coalescing_table (Ablate.coalescing ~quick ?domains:!domains_arg ()))

let run_ablate_piv () =
  section "Ablation: posted interrupts vs full APIC virtualization";
  Covirt_sim.Table.print_auto (Ablate.piv_table (Ablate.piv_vs_full ()))

let run_ablate_sync ~quick () =
  section "Ablation: asynchronous vs synchronous configuration updates";
  Covirt_sim.Table.print_auto (Ablate.sync_table (Ablate.sync_vs_async ~quick ()))

let run_compare ~quick () =
  section "Comparison: Covirt vs traditional virtualization (Fig. 1b)";
  Covirt_sim.Table.print_auto (Compare_virt.ipc_table (Compare_virt.ipc ()));
  Covirt_sim.Table.print_auto (Compare_virt.sharing_table (Compare_virt.sharing ~quick ()));
  Format.printf
    "Covirt's IPC rides shared identity mappings with only a whitelist@.\
     check on the doorbell; full virtualization pays two exit pairs and@.\
     a hypervisor copy per message, and a balloon/remap round trip for@.\
     every sharing-topology change.@."

let run_isolation ~quick () =
  section "Performance isolation: bandwidth pressure across the partition";
  Covirt_sim.Table.print_auto (Isolation.table (Isolation.run ~quick ()));
  Format.printf
    "Pressure in the other NUMA zone is free; pressure in the enclave's@.\
     own zone costs the same with and without Covirt — protection@.\
     neither causes nor cures bandwidth interference.@."

let run_campaign ~quick () =
  section "Fault-injection campaign: containment rates by configuration";
  let trials = if quick then 25 else 60 in
  Covirt_sim.Table.print_auto
    (Campaign.table (Campaign.run ~trials ?domains:!domains_arg ()));
  Format.printf
    "Random faults from the paper's taxonomy against a two-tenant node.@.\
     Each feature contains exactly its own fault classes (mem: wild@.\
     writes; ipi: errant vectors; msr+io: register/port abuse; the@.\
     base hypervisor: aborts) — with every feature on, no fault kills@.\
     the node or touches the other tenant; the residue is latent@.\
     writes to free memory inside the attacker's own blast radius.@."

let run_noise () =
  section "OS noise: host Linux core vs LWK enclave vs protected enclave";
  Covirt_sim.Table.print_auto (Noise_compare.table (Noise_compare.run ()));
  Format.printf
    "The LWK buys orders of magnitude in noise; Covirt does not give@.\
     it back.@."

let run_scale ~quick () =
  section "Scale: protection cost vs co-resident enclave count";
  Covirt_sim.Table.print_auto
    (Scale.table (Scale.run ~quick ?domains:!domains_arg ()));
  Format.printf
    "Per-core hypervisor contexts and per-enclave EPTs: the protection@.\
     cost each enclave pays is independent of its neighbours.@."

let run_kernels () =
  section "Generalizability: the co-kernel architecture matrix";
  Covirt_sim.Table.print_auto (Kernels.table (Kernels.matrix ()));
  Format.printf
    "Three kernel architectures from different points of the paper's@.\
     integration axis, all protected by the same controller with zero@.\
     kernel-specific code.@."

(* ------------------------------------------------------------------ *)
(* The dense-node load generator: Zipf-skewed control-plane churn under
   admission control.  The simulated overall p99 op latency is recorded
   as loadgen_p99_ns — a deterministic (cycle-model) figure, so the
   25% regression gate on it is meaningful, unlike wall-clock. *)

let loadgen_p99_ns : float option ref = ref None

let run_loadgen ~quick () =
  section "Loadgen: dense-node control-plane churn (Zipf, admission)";
  let module L = Covirt_loadgen.Loadgen in
  let tenants = if quick then 128 else 512 in
  let ops = if quick then 1024 else 4096 in
  let spec = L.spec ~tenants ~ops ~shards:8 ~seed:2026 () in
  let r = L.run ?domains:!domains_arg spec in
  let t = L.totals r in
  let tbl =
    Covirt_sim.Table.create ~columns:[ "metric"; "value" ]
  in
  List.iter
    (fun (k, v) -> Covirt_sim.Table.add_row tbl [ k; v ])
    [
      ("tenants", string_of_int tenants);
      ("ops", string_of_int ops);
      ("creates", string_of_int t.L.creates);
      ("destroys", string_of_int t.L.destroys);
      ("peak in-flight", string_of_int (L.peak_in_flight r));
      ("p50 ns", Printf.sprintf "%.0f" (L.quantile_ns r ~p:50.));
      ("p99 ns", Printf.sprintf "%.0f" (L.quantile_ns r ~p:99.));
      ("verifier violations", string_of_int (L.violations r));
      ("audit", if L.ok r then "clean" else "FAILED");
    ];
  Covirt_sim.Table.print tbl;
  loadgen_p99_ns := Some (L.quantile_ns r ~p:99.)

(* ------------------------------------------------------------------ *)
(* The fleet experiment: the one place wall-clock is the measurement.
   A sharded soak runs once on a single domain and once on the fleet;
   the rendered result tables must be byte-identical (the determinism
   contract), and the wall-clock ratio is recorded as fleet_speedup. *)

let fleet_speedup : float option ref = ref None
let fleet_domains : int option ref = ref None

let run_fleet ~quick () =
  section "Fleet: domain-sharded soak, determinism and wall-clock speedup";
  let domains =
    match !domains_arg with
    | Some d -> d
    | None -> Covirt_fleet.Fleet.recommended_domains ()
  in
  fleet_domains := Some domains;
  let trials = if quick then 400 else 1600 in
  let shards = 16 in
  let soak d =
    let t0 = Unix.gettimeofday () in
    let r = Covirt_resilience.Soak.run ~trials ~seed:2026 ~shards ~domains:d () in
    (Covirt_sim.Table.render (Covirt_resilience.Soak.table r),
     Unix.gettimeofday () -. t0)
  in
  let seq_out, seq_t = soak 1 in
  let par_out, par_t = soak domains in
  let speedup = seq_t /. Float.max par_t 1e-9 in
  fleet_speedup := Some speedup;
  let t =
    Covirt_sim.Table.create ~columns:[ "domains"; "wall s"; "speedup" ]
  in
  Covirt_sim.Table.add_row t [ "1"; Printf.sprintf "%.2f" seq_t; "1.00x" ];
  Covirt_sim.Table.add_row t
    [ string_of_int domains; Printf.sprintf "%.2f" par_t;
      Printf.sprintf "%.2fx" speedup ];
  Covirt_sim.Table.print t;
  Format.printf
    "%d-shard soak (%d trials), byte-identical across placements: %b@."
    shards trials (String.equal seq_out par_out);
  if not (String.equal seq_out par_out) then begin
    Format.eprintf
      "fleet: DETERMINISM VIOLATION — domains:1 and domains:%d rendered \
       different soak tables@."
      domains;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Microbenchmarks of the hot paths.  Each is one closure measured two
   ways: Bechamel for ns/op, and a direct [Gc.minor_words] delta for
   minor words/op.  [gate] marks the warm-path set — translate, TLB
   lookup, memoized charge — that the allocation gate pins to exactly
   zero words/op (the zero-GC hot-path contract; see DESIGN.md §13).
   [iters] is the length of each floor-latency loop (and caps the
   allocation-measurement reps): 100k for the ns-scale hot paths,
   fewer for the µs-scale lifecycle benches so they do not add
   seconds to the experiment. *)

type micro = { mname : string; gate : bool; iters : int; fn : unit -> unit }

let floor_iters = 100_000

let microbenches () =
  let open Covirt_hw in
  let mib = Covirt_sim.Units.mib in
  (* EPT translate on a coalesced identity map.  [translate_code] is
     the allocation-free entry the simulator's own warm path uses. *)
  let ept = Ept.create () in
  Ept.map_region ept (Region.make ~base:0 ~len:(1024 * mib));
  let translate =
    { mname = "ept_translate"; gate = true; iters = floor_iters;
      fn =
        (fun () -> ignore (Ept.translate_code ept 0x12345678 ~access:`Read)) }
  in
  (* EPT translate on a 4K-grain map (the hard case: a full 4-level
     walk when cold), warm via the paging-structure walk cache vs cold
     with the cache disabled *)
  let grain_len = 64 * mib in
  let ept_warm = Ept.create ~max_page:Addr.Page_4k () in
  Ept.map_region ept_warm (Region.make ~base:0 ~len:grain_len);
  (* pre-touch every page so the measurement sees the steady state,
     not the one-off lazy slot resolution *)
  for p = 0 to (grain_len / 4096) - 1 do
    ignore (Ept.translate_code ept_warm (p * 4096) ~access:`Read)
  done;
  let widx = ref 0 in
  let translate_warm =
    { mname = "ept_translate_warm"; gate = true; iters = floor_iters;
      fn =
        (fun () ->
          incr widx;
          ignore
            (Ept.translate_code ept_warm
               ((!widx * 4096 + 8) land (grain_len - 1))
               ~access:`Read)) }
  in
  let ept_cold = Ept.create ~max_page:Addr.Page_4k ~walk_cache:false () in
  Ept.map_region ept_cold (Region.make ~base:0 ~len:grain_len);
  let cidx = ref 0 in
  let translate_cold =
    { mname = "ept_translate_cold"; gate = false; iters = floor_iters;
      fn =
        (fun () ->
          incr cidx;
          ignore
            (Ept.translate_code ept_cold
               ((!cidx * 4096 + 8) land (grain_len - 1))
               ~access:`Read)) }
  in
  (* EPT map/unmap of a 2M region *)
  let scratch = Ept.create () in
  let map_unmap =
    { mname = "ept_map_unmap_2m"; gate = false; iters = floor_iters;
      fn =
        (fun () ->
          let r = Region.make ~base:(2 * mib) ~len:(2 * mib) in
          Ept.map_region scratch r;
          Ept.unmap_region scratch r) }
  in
  (* TLB lookup — [lookup] answers with an int, so the real API is
     itself on the gate *)
  let model = Cost_model.default in
  let tlb = Tlb.create ~model in
  Tlb.install tlb 0x200000 ~page_size:Addr.Page_2m;
  let tlb_lookup =
    { mname = "tlb_lookup"; gate = true; iters = floor_iters;
      fn = (fun () -> ignore (Tlb.lookup tlb 0x200400)) }
  in
  (* TLB lookup against a completely full TLB — every probe hits, and
     the probe address cycles through every installed page so set
     indexing is exercised, not just one hot set *)
  let full = Tlb.create ~model in
  let sets, ways = Tlb.geometry full Addr.Page_4k in
  let n_full = sets * ways in
  let hit_addrs = Array.init n_full (fun i -> i * 4096) in
  Array.iter (fun a -> Tlb.install full a ~page_size:Addr.Page_4k) hit_addrs;
  let hidx = ref 0 in
  let tlb_lookup_hit =
    { mname = "tlb_lookup_hit"; gate = true; iters = floor_iters;
      fn =
        (fun () ->
          incr hidx;
          ignore (Tlb.lookup full hit_addrs.(!hidx land (n_full - 1)))) }
  in
  let midx = ref 0 in
  let tlb_lookup_miss =
    { mname = "tlb_lookup_miss"; gate = true; iters = floor_iters;
      fn =
        (fun () ->
          incr midx;
          ignore (Tlb.lookup full ((n_full + (!midx land 1023)) * 4096))) }
  in
  let xidx = ref 0 in
  let tlb_lookup_mixed =
    { mname = "tlb_lookup_mixed"; gate = true; iters = floor_iters;
      fn =
        (fun () ->
          incr xidx;
          let a =
            if !xidx land 1 = 0 then hit_addrs.(!xidx land (n_full - 1))
            else (n_full + (!xidx land 1023)) * 4096
          in
          ignore (Tlb.lookup full a)) }
  in
  (* memoized bulk charge model: warm calls are one scratch-key probe *)
  let machine =
    Machine.create ~zones:1 ~cores_per_zone:1 ~mem_per_zone:(256 * mib)
      ~host_reserved_per_zone:(32 * mib) ()
  in
  let cpu0 = Machine.cpu machine 0 in
  let charge_random =
    { mname = "charge_random"; gate = true; iters = floor_iters;
      fn =
        (fun () ->
          Machine.charge_random machine cpu0 ~ops:1000 ~base:(64 * mib)
            ~working_set:(16 * mib) ~sharers:1 ~page_size:Addr.Page_2m) }
  in
  let charge_stream =
    { mname = "charge_stream"; gate = true; iters = floor_iters;
      fn =
        (fun () ->
          Machine.charge_stream machine cpu0 ~base:(64 * mib)
            ~bytes:(8 * mib) ~sharers:1 ~page_size:Addr.Page_2m) }
  in
  (* whitelist check *)
  let wl = Covirt.Whitelist.create ~enclave_cores:[ 1; 2; 3; 4 ] in
  Covirt.Whitelist.grant wl ~vector:0x44 ~dest:7;
  let whitelist =
    { mname = "whitelist_permits"; gate = false; iters = floor_iters;
      fn =
        (fun () ->
          ignore
            (Covirt.Whitelist.permits wl ~dest:7 ~vector:0x44
               ~kind:Apic.Fixed)) }
  in
  (* command queue round trip *)
  let q = Covirt.Command.create_queue () in
  let cmdq =
    { mname = "command_queue_roundtrip"; gate = false; iters = floor_iters;
      fn =
        (fun () ->
          ignore (Covirt.Command.enqueue q Covirt.Command.Flush_tlb_all);
          ignore (Covirt.Command.dequeue q)) }
  in
  (* region set membership *)
  let set =
    Region.Set.of_list
      (List.init 64 (fun i -> Region.make ~base:(i * 4 * mib) ~len:(2 * mib)))
  in
  let region_mem =
    { mname = "region_set_mem"; gate = false; iters = floor_iters;
      fn = (fun () -> ignore (Region.Set.mem set (100 * mib))) }
  in
  (* XEMEM export's ownership check: one 2M window against a map of
     256 enclave assignments (the share-steady shape).  One pass over
     the assignments whatever the window size; expected 0 words/op,
     but not on the warm-path gate — export is a control-path op. *)
  let owned_map =
    Phys_mem.create
      ~topology:
        (Numa.create ~zones:1 ~cores_per_zone:1 ~mem_per_zone:(1056 * mib))
      ~host_reserved_per_zone:(32 * mib)
  in
  let tenant_blocks =
    List.init 256 (fun i ->
        match
          Phys_mem.alloc owned_map ~owner:(Owner.Enclave i) ~zone:0
            ~len:(4 * mib)
        with
        | Ok r -> r
        | Error e -> failwith e)
  in
  let window =
    Region.make ~base:(List.nth tenant_blocks 128).Region.base ~len:(2 * mib)
  in
  let phys_mem_owns =
    { mname = "phys_mem_owns_2m"; gate = false; iters = floor_iters;
      fn =
        (fun () ->
          ignore (Phys_mem.owns owned_map (Owner.Enclave 128) window)) }
  in
  (* rng — bits64 boxes its Int64 result by design; not on the gate *)
  let rng = Covirt_sim.Rng.create ~seed:9 in
  let rng_test =
    { mname = "rng_bits64"; gate = false; iters = floor_iters;
      fn = (fun () -> ignore (Covirt_sim.Rng.bits64 rng)) }
  in
  [
    translate; translate_warm; translate_cold; map_unmap;
    tlb_lookup; tlb_lookup_hit; tlb_lookup_miss; tlb_lookup_mixed;
    charge_random; charge_stream; whitelist; cmdq; region_mem; phys_mem_owns;
    rng_test;
  ]

(* Enclave lifecycle, the per-layer Pisces create/boot/destroy unit
   ops: floor ns and words/op only, not timed by Bechamel, whose GC
   compaction per sample would pay for the dense nodes' heaps.  Launch
   and destroy touch only what the tenant owns, so their words/op must
   not grow with the live-tenant count: [check_alloc_gate] holds the
   [lifecycle_tenants] rows within [lifecycle_spread] of each other.
   Every launch builds two tables (the EPT Covirt prepares in the
   create hook, Kitten's direct map at boot), so [ept_create] is one of
   them: a fresh EPT mapping a 24 MiB tenant at 2M grain. *)
let lifecycle_tenants = [ 8; 64; 512 ]
let lifecycle_spread = 1.10
let lifecycle_name live = Printf.sprintf "enclave_launch_destroy_%d" live

let lifecycle_benches () =
  let open Covirt_hw in
  let mib = Covirt_sim.Units.mib in
  let ept_create =
    { mname = "ept_create"; gate = false; iters = 10_000;
      fn =
        (fun () ->
          let e = Ept.create () in
          Ept.map_region e (Region.make ~base:(64 * mib) ~len:(24 * mib))) }
  in
  (* One launch and destroy of a 24 MiB, one-core tenant under mem+ipi
     on a node with [live] other live tenants.  Each node is built on
     its bench's first call, so it is live only while that bench runs.
     Zones are whole multiples of 512 MiB: every boot builds Kitten's
     direct map of all node RAM, in 1G pages plus 2M pages for a
     ragged tail (~22 words per 2M page), which would otherwise swamp
     the per-tenant work with the node's RAM size modulo 1 GiB. *)
  let launch_destroy live =
    let cores_per_zone = (live + 3) / 2 in
    let mem_mib_per_zone = ((cores_per_zone * 26) + 256 + 511) / 512 * 512 in
    let launch node core =
      match
        Covirt_hobbes.Hobbes.launch_enclave node
          ~name:(Printf.sprintf "tenant-%d" core)
          ~cores:[ core ]
          ~mem:[ (core / cores_per_zone, 24 * mib) ]
          ()
      with
      | Ok (e, _) -> e
      | Error m -> failwith m
    in
    let node =
      lazy
        (let node =
           Covirt_hobbes.Hobbes.create_node ~seed:11 ~cores_per_zone
             ~mem_mib_per_zone ()
         in
         ignore
           (Covirt.enable (Covirt_hobbes.Hobbes.pisces node)
              ~config:Covirt.Config.mem_ipi);
         for core = 1 to live do ignore (launch node core) done;
         node)
    in
    { mname = lifecycle_name live; gate = false; iters = 1_000;
      fn =
        (fun () ->
          let node = Lazy.force node in
          Covirt_pisces.Pisces.destroy
            (Covirt_hobbes.Hobbes.pisces node)
            (launch node (live + 1))) }
  in
  ept_create :: List.map launch_destroy lifecycle_tenants

(* The granular data path, whole calls, measured like the lifecycle
   benches (floor ns and words/op, not by Bechamel).  [machine_store_hit]
   is one full [Machine.store] of the writer's own memory that hits the
   TLB — translate, owner lookup and charge — and sits on the
   allocation gate with the other warm paths.
   [machine_store_guest_hit] is the same store from an enclave core
   under mem+ipi (guest mode, EPT on) to one page of its own memory,
   so every call repeats the TLB's last hit; also gated.
   [ipc_send_64w] is one 64-word [Ipc.send] (the stores plus the
   doorbell IPI through the ICR exit and the consumer's ISR) from a
   producer to a consumer enclave under mem+ipi; gated.
   [vmexit_roundtrip] delivers one exit of each reason that neither
   kills nor reports (an allowed ICR write, an MSR read, cpuid, xsetbv,
   hlt, an external interrupt, an NMI with nothing queued) on the
   producer's core, through the hypervisor's installed handler; gated.
   [vmexit_roundtrip_covered] is the same seven exits with the coverage
   collector armed around them, so every exit dispatches through the
   probe bus; gated. *)
let path_benches () =
  let open Covirt_hw in
  let mib = Covirt_sim.Units.mib in
  let machine =
    Machine.create ~zones:1 ~cores_per_zone:1 ~mem_per_zone:(256 * mib)
      ~host_reserved_per_zone:(32 * mib) ()
  in
  (* the writer's block is the first of 8 tenants' (the last in the
     ownership scan) *)
  let blocks =
    List.init 8 (fun i ->
        match
          Phys_mem.alloc machine.Machine.mem ~owner:(Owner.Enclave i) ~zone:0
            ~len:(4 * mib)
        with
        | Ok r -> r
        | Error e -> failwith e)
  in
  let cpu0 = Machine.cpu machine 0 in
  cpu0.Cpu.owner <- Owner.Enclave 0;
  let target = (List.hd blocks).Region.base + 64 in
  let store_hit =
    { mname = "machine_store_hit"; gate = true; iters = floor_iters;
      fn = (fun () -> Machine.store machine cpu0 target) }
  in
  let node =
    Covirt_hobbes.Hobbes.create_node ~seed:13 ~zones:2 ~cores_per_zone:2
      ~mem_mib_per_zone:512 ()
  in
  ignore
    (Covirt.enable (Covirt_hobbes.Hobbes.pisces node)
       ~config:Covirt.Config.mem_ipi);
  let launch name core zone =
    match
      Covirt_hobbes.Hobbes.launch_enclave node ~name ~cores:[ core ]
        ~mem:[ (zone, 32 * mib) ] ()
    with
    | Ok ek -> ek
    | Error m -> failwith m
  in
  let producer = launch "producer" 1 0 in
  let consumer = launch "consumer" 2 1 in
  let ch =
    match
      Covirt_hobbes.Ipc.connect node ~producer ~consumer ~name:"ring"
        ~ring_bytes:(64 * 1024)
    with
    | Ok ch -> ch
    | Error m -> failwith m
  in
  let ctx = Covirt_kitten.Kitten.context (snd producer) ~core:1 in
  let own =
    match Covirt_kitten.Kitten.kalloc (snd producer) ~bytes:4096 with
    | Ok a -> a + 64
    | Error m -> failwith m
  in
  let store_guest_hit =
    { mname = "machine_store_guest_hit"; gate = true; iters = floor_iters;
      fn =
        (fun () ->
          Machine.store ctx.Covirt_kitten.Kitten.machine
            ctx.Covirt_kitten.Kitten.cpu own) }
  in
  let ipc_send =
    { mname = "ipc_send_64w"; gate = true; iters = 10_000;
      fn = (fun () -> Covirt_hobbes.Ipc.send ch ctx ~words:64) }
  in
  let cpu = ctx.Covirt_kitten.Kitten.cpu in
  let vmcs = Option.get (Cpu.vmcs cpu) in
  let model = machine.Machine.model in
  let deliver reason ~qual ~addr ~value =
    Vmcs.set_exit vmcs reason ~qual ~addr ~value;
    ignore (Vmx.deliver_exit ~model cpu vmcs)
  in
  let roundtrip () =
    deliver Vmcs.Icr_write ~qual:(Apic.kind_code Apic.Fixed) ~addr:1
      ~value:0x40;
    deliver Vmcs.Msr_access ~qual:0 ~addr:Msr.ia32_pat ~value:0;
    deliver Vmcs.Cpuid ~qual:0 ~addr:0 ~value:0;
    deliver Vmcs.Xsetbv ~qual:0 ~addr:0 ~value:0;
    deliver Vmcs.Hlt ~qual:0 ~addr:0 ~value:0;
    deliver Vmcs.External_interrupt ~qual:0 ~addr:0 ~value:0xef;
    deliver Vmcs.Nmi_exit ~qual:0 ~addr:0 ~value:0
  in
  let vmexit_roundtrip =
    { mname = "vmexit_roundtrip"; gate = true; iters = floor_iters;
      fn = roundtrip }
  in
  let vmexit_roundtrip_covered =
    { mname = "vmexit_roundtrip_covered"; gate = true; iters = floor_iters;
      fn =
        (fun () ->
          Covirt_replay.Coverage.arm ();
          roundtrip ();
          Covirt_replay.Coverage.disarm ()) }
  in
  [ store_hit; store_guest_hit; ipc_send; vmexit_roundtrip;
    vmexit_roundtrip_covered ]

(* Microbench estimates, collected for the JSON report.
   [micro_results] is the floor latency (best of N tight loops) — the
   robust estimate on a noisy shared CPU, and the one gates read;
   [micro_ols] keeps Bechamel's OLS fit for comparison. *)
let micro_results : (string * float) list ref = ref []
let micro_ols : (string * float) list ref = ref []
let micro_alloc : (string * float) list ref = ref []
let alloc_failures : (string * float) list ref = ref []

(* Minor words allocated by [reps] calls of [f].  The [Gc.minor_words]
   stub boxes its float result *after* sampling the counter, so the
   [before] sample's own box (2 words) lands inside the measured
   window; measuring a no-op loop first and subtracting removes that
   constant, letting the gate assert *exactly* zero words/op. *)
let alloc_reps = 10_000

let minor_words_of f reps =
  for _ = 1 to 256 do f () done;
  (* warm: fill caches/memos, force lazies *)
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to reps do f () done;
  let after = Gc.minor_words () in
  after -. before

let noop () = ()

(* Exact zero-allocation claims only hold under the native compiler;
   bytecode boxes float temporaries the optimizer would keep in
   registers.  The gate is skipped (with a note) under bytecode. *)
let native = Sys.backend_type = Sys.Native

(* Floor latency: best of a few tight loops.  The minimum is the
   standard robust per-op estimate on a preempted/shared CPU, where an
   OLS fit over noisy samples can be arbitrarily bad. *)
let min_ns_of ~iters f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do f () done;
    let dt = Unix.gettimeofday () -. t0 in
    let ns = dt *. 1e9 /. float_of_int iters in
    if ns < !best then best := ns
  done;
  !best

let measure_alloc ms =
  let t =
    Covirt_sim.Table.create
      ~columns:[ "operation"; "minor words/op"; "gate"; "floor ns/op" ]
  in
  List.iter
    (fun m ->
      let reps = min alloc_reps m.iters in
      let w =
        (minor_words_of m.fn reps -. minor_words_of noop reps)
        /. float_of_int reps
      in
      let ns = min_ns_of ~iters:m.iters m.fn in
      micro_alloc := (m.mname, w) :: !micro_alloc;
      micro_results := (m.mname, ns) :: !micro_results;
      if m.gate && native && w <> 0.0 then
        alloc_failures := (m.mname, w) :: !alloc_failures;
      Covirt_sim.Table.add_row t
        [ m.mname; Printf.sprintf "%.4f" w;
          (if m.gate then "= 0" else "-"); Printf.sprintf "%.1f" ns ])
    ms;
  Covirt_sim.Table.print t;
  if not native then
    Format.printf "(bytecode backend: allocation gate not enforced)@."

(* The lifecycle rows must agree within [lifecycle_spread] (largest
   over smallest words/op); [true] when they do or were not measured. *)
let lifecycle_spread_ok () =
  let words =
    List.filter_map
      (fun n -> List.assoc_opt (lifecycle_name n) !micro_alloc)
      lifecycle_tenants
  in
  let tenants = String.concat "/" (List.map string_of_int lifecycle_tenants) in
  List.length words < List.length lifecycle_tenants
  ||
  let lo = List.fold_left min infinity words
  and hi = List.fold_left max 0.0 words in
  if hi <= lifecycle_spread *. lo then begin
    Format.printf
      "@.bench lifecycle gate: launch+destroy words/op within %.0f%% at %s \
       live tenants@."
      (100.0 *. (lifecycle_spread -. 1.0))
      tenants;
    true
  end
  else begin
    Format.eprintf
      "bench lifecycle gate: FAIL launch+destroy words/op at %s live tenants \
       spread %.3fx (%.0f..%.0f), must stay within %.2fx@."
      tenants (hi /. lo) lo hi lifecycle_spread;
    false
  end

let check_alloc_gate () =
  let spread_ok = lifecycle_spread_ok () in
  (match !alloc_failures with
  | [] ->
      if !micro_alloc <> [] && native then
        Format.printf
          "@.bench alloc gate: all warm-path microbenches at 0 minor \
           words/op@."
  | fs ->
      List.iter
        (fun (n, w) ->
          Format.eprintf
            "bench alloc gate: FAIL %s allocates %.4f minor words/op \
             (must be 0)@."
            n w)
        fs);
  if !alloc_failures <> [] || not spread_ok then exit 1

let run_bechamel () =
  section "Bechamel microbenchmarks (host-side hot paths, real ns)";
  let ms = microbenches () in
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.15) ~stabilize:true ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let t = Covirt_sim.Table.create ~columns:[ "operation"; "ns/op"; "r^2" ] in
  List.iter
    (fun m ->
      let test = Test.make ~name:m.mname (Staged.stage m.fn) in
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] ->
                micro_ols := (name, e) :: !micro_ols;
                Format.asprintf "%.1f" e
            | Some es ->
                String.concat ","
                  (List.map (fun e -> Format.asprintf "%.1f" e) es)
            | None -> "n/a"
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Format.asprintf "%.3f" r
            | None -> "n/a"
          in
          Covirt_sim.Table.add_row t [ name; estimate; r2 ])
        analysis)
    ms;
  Covirt_sim.Table.print t;
  section "Minor allocation per operation (Gc.minor_words delta)";
  measure_alloc (ms @ path_benches () @ lifecycle_benches ())

(* ------------------------------------------------------------------ *)
(* The persisted benchmark pipeline: every experiment's wall-clock is
   recorded; [--json] writes the lot (plus microbench estimates) to
   BENCH_covirt.json, [--emit-baseline f] snapshots the wall-clocks as
   TSV, and [--check f] fails the run when any harness regresses more
   than 25% against such a snapshot. *)

let harness_timings : (string * float) list ref = ref []

(* With --trace-out, observability is on: each experiment becomes a
   profiler phase, and its metrics snapshot-diff is summarised after
   the run (the same diff API the soak and the --check gate use). *)
let tracing = ref false
let exp_deltas : (string * Covirt_obs.Metrics.snapshot) list ref = ref []

let timed name f =
  let before =
    if !tracing then begin
      Covirt_obs.Profiler.set_phase name;
      Some (Covirt_obs.Metrics.snapshot ())
    end
    else None
  in
  let t0 = Unix.gettimeofday () in
  f ();
  harness_timings := (name, Unix.gettimeofday () -. t0) :: !harness_timings;
  Option.iter
    (fun before ->
      let delta =
        Covirt_obs.Metrics.diff ~before
          ~after:(Covirt_obs.Metrics.snapshot ())
      in
      exp_deltas := (name, delta) :: !exp_deltas)
    before

let print_obs_summary () =
  section "Observability summary (per experiment)";
  let t =
    Covirt_sim.Table.create
      ~columns:[ "experiment"; "vm exits"; "tlb miss"; "ept walk miss";
                 "fault reports" ]
  in
  List.iter
    (fun (name, d) ->
      let c n = string_of_int (Covirt_obs.Metrics.total_counter d n) in
      Covirt_sim.Table.add_row t
        [ name; c "vmexit.count"; c "tlb.lookup.miss"; c "ept.walk.miss";
          c "fault.report" ])
    (List.rev !exp_deltas);
  Covirt_sim.Table.print t

let experiments ~quick =
  [
    ("table1", run_table1);
    ("fig3", run_fig3 ~quick);
    ("fig4", run_fig4 ~quick);
    ("fig5", run_fig5 ~quick);
    ("fig6", run_fig6 ~quick);
    ("fig7", run_fig7 ~quick);
    ("fig8", run_fig8 ~quick);
    ("ablate-coalesce", run_ablate_coalesce ~quick);
    ("ablate-piv", run_ablate_piv);
    ("ablate-sync", run_ablate_sync ~quick);
    ("compare", run_compare ~quick);
    ("noise", run_noise);
    ("campaign", run_campaign ~quick);
    ("isolation", run_isolation ~quick);
    ("scale", run_scale ~quick);
    ("kernels", run_kernels);
    ("fleet", run_fleet ~quick);
    ("loadgen", run_loadgen ~quick);
    ("bechamel", run_bechamel);
  ]

let json_path = "BENCH_covirt.json"

let write_json ~quick =
  let oc = open_out json_path in
  let entries l =
    String.concat ",\n"
      (List.rev_map (fun (k, v) -> Printf.sprintf "    %S: %.6f" k v) l)
  in
  Printf.fprintf oc
    "{\n  \"schema\": \"covirt-bench/1\",\n  \"quick\": %b,\n" quick;
  Option.iter
    (fun s -> Printf.fprintf oc "  \"fleet_speedup\": %.3f,\n" s)
    !fleet_speedup;
  Option.iter
    (fun d -> Printf.fprintf oc "  \"fleet_domains\": %d,\n" d)
    !fleet_domains;
  Option.iter
    (fun p -> Printf.fprintf oc "  \"loadgen_p99_ns\": %.1f,\n" p)
    !loadgen_p99_ns;
  Printf.fprintf oc "  \"harness_wall_seconds\": {\n%s\n  },\n"
    (entries !harness_timings);
  Printf.fprintf oc "  \"minor_words_per_op\": {\n%s\n  },\n"
    (entries !micro_alloc);
  Printf.fprintf oc "  \"bechamel_ols_ns_per_op\": {\n%s\n  },\n"
    (entries !micro_ols);
  Printf.fprintf oc "  \"microbench_ns_per_op\": {\n%s\n  }\n}\n"
    (entries !micro_results);
  close_out oc;
  Format.printf "@.wrote %s@." json_path

let emit_baseline path =
  let oc = open_out path in
  Printf.fprintf oc "# harness wall-clock baseline (name<TAB>seconds)\n";
  List.iter (fun (n, s) -> Printf.fprintf oc "%s\t%.4f\n" n s)
    (List.rev !harness_timings);
  close_out oc;
  Format.printf "@.wrote baseline %s@." path

(* --gc-stats: persist the allocation measurements plus the process's
   end-of-run GC counters (CI uploads this file as an artifact, so a
   regression in allocation behaviour is visible without re-running). *)
let write_gc_stats path =
  let oc = open_out path in
  Printf.fprintf oc "# covirt bench GC stats\n";
  Printf.fprintf oc "backend\t%s\n" (if native then "native" else "bytecode");
  Printf.fprintf oc "# microbench minor words/op (gate * = must be 0)\n";
  List.iter
    (fun (n, w) -> Printf.fprintf oc "alloc\t%s\t%.6f\n" n w)
    (List.rev !micro_alloc);
  let s = Gc.quick_stat () in
  Printf.fprintf oc "gc\tminor_words\t%.0f\n" s.Gc.minor_words;
  Printf.fprintf oc "gc\tpromoted_words\t%.0f\n" s.Gc.promoted_words;
  Printf.fprintf oc "gc\tmajor_words\t%.0f\n" s.Gc.major_words;
  Printf.fprintf oc "gc\tminor_collections\t%d\n" s.Gc.minor_collections;
  Printf.fprintf oc "gc\tmajor_collections\t%d\n" s.Gc.major_collections;
  close_out oc;
  Format.printf "@.wrote GC stats %s@." path

let regression_threshold = 1.25
let check_floor_seconds = 0.05

let check_baseline path =
  let baseline = ref [] in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 && line.[0] <> '#' then
         match String.index_opt line '\t' with
         | Some i ->
             let name = String.sub line 0 i in
             let secs =
               float_of_string
                 (String.sub line (i + 1) (String.length line - i - 1))
             in
             baseline := (name, secs) :: !baseline
         | None -> ()
     done
   with End_of_file -> close_in ic);
  let failures =
    List.filter_map
      (fun (name, base) ->
        if name = "loadgen_p99_ns" then
          (* Simulated-cycle figure, deterministic: gate it directly,
             no noise floor needed. *)
          match !loadgen_p99_ns with
          | Some cur when cur > regression_threshold *. base ->
              Some (name, base, cur)
          | _ -> None
        else if
          (* sub-floor entries are noise-dominated; skip them *)
          base < check_floor_seconds
        then None
        else
          match List.assoc_opt name !harness_timings with
          | Some cur when cur > regression_threshold *. base ->
              Some (name, base, cur)
          | _ -> None)
      !baseline
  in
  match failures with
  | [] ->
      Format.printf "@.bench --check: all harness wall-clocks within %.0f%%@."
        (100.0 *. (regression_threshold -. 1.0))
  | fs ->
      List.iter
        (fun (n, b, c) ->
          Format.eprintf "bench --check: REGRESSION %s: %.2fs -> %.2fs (+%.0f%%)@."
            n b c (100.0 *. (c -. b) /. b))
        fs;
      exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let json = List.mem "--json" args in
  Covirt_sim.Table.set_tsv_mode (List.mem "--tsv" args);
  let gc_stats_out : string option ref = ref None in
  let rec parse names check baseline_out trace_out = function
    | [] -> (List.rev names, check, baseline_out, trace_out)
    | "--check" :: path :: rest ->
        parse names (Some path) baseline_out trace_out rest
    | "--emit-baseline" :: path :: rest ->
        parse names check (Some path) trace_out rest
    | "--trace-out" :: path :: rest ->
        parse names check baseline_out (Some path) rest
    | "--gc-stats" :: path :: rest ->
        gc_stats_out := Some path;
        parse names check baseline_out trace_out rest
    | "--domains" :: n :: rest -> (
        match int_of_string_opt n with
        | Some d when d >= 1 ->
            domains_arg := Some d;
            parse names check baseline_out trace_out rest
        | _ ->
            Format.eprintf "--domains needs a positive integer, got %S@." n;
            exit 1)
    | ("--check" | "--emit-baseline" | "--trace-out" | "--domains"
      | "--gc-stats") :: [] ->
        Format.eprintf
          "--check/--emit-baseline/--trace-out/--domains/--gc-stats need an \
           argument@.";
        exit 1
    | ("quick" | "--tsv" | "--json") :: rest ->
        parse names check baseline_out trace_out rest
    | a :: rest -> parse (a :: names) check baseline_out trace_out rest
  in
  let names, check, baseline_out, trace_out = parse [] None None None args in
  if trace_out <> None then begin
    tracing := true;
    Covirt_obs.enable ();
    Covirt_obs.Exporter.enable ()
  end;
  let table = experiments ~quick in
  (match names with
  | [] -> List.iter (fun (name, f) -> timed name f) table
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name table with
          | Some f -> timed name f
          | None ->
              Format.eprintf
                "unknown experiment %S (try: table1 fig3..fig8 \
                 ablate-coalesce ablate-piv ablate-sync fleet bechamel)@."
                name;
              exit 1)
        names);
  if json then write_json ~quick;
  Option.iter
    (fun path ->
      print_obs_summary ();
      Covirt_obs.Exporter.write_chrome_json ~path;
      Format.printf "@.wrote %d trace events to %s (%d dropped)@."
        (Covirt_obs.Exporter.length ()) path (Covirt_obs.Exporter.dropped ()))
    trace_out;
  Option.iter emit_baseline baseline_out;
  Option.iter write_gc_stats !gc_stats_out;
  (* The allocation gate is deterministic (no wall-clock noise), so it
     runs whenever the bechamel experiment did. *)
  check_alloc_gate ();
  Option.iter check_baseline check
