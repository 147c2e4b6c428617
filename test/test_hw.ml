(* Hardware component tests: addresses, NUMA, cost model, TLB, MSR,
   I/O ports, APIC, physical memory map. *)

open Covirt_hw

let mib = Covirt_sim.Units.mib

let test_addr_alignment () =
  Alcotest.(check int) "down" 0x200000 (Addr.page_down 0x2fffff ~size:Addr.page_size_2m);
  Alcotest.(check int) "up" 0x400000 (Addr.page_up 0x200001 ~size:Addr.page_size_2m);
  Alcotest.(check bool) "aligned" true (Addr.is_aligned 0x200000 ~size:Addr.page_size_2m);
  Alcotest.(check int) "pfn" 2 (Addr.pfn 0x2100 ~size:4096)

let test_numa_mapping () =
  let t = Numa.create ~zones:2 ~cores_per_zone:4 ~mem_per_zone:(1024 * mib) in
  Alcotest.(check int) "cores" 8 (Numa.cores t);
  Alcotest.(check int) "core 3 zone" 0 (Numa.zone_of_core t ~core:3);
  Alcotest.(check int) "core 4 zone" 1 (Numa.zone_of_core t ~core:4);
  Alcotest.(check int) "addr zone 0" 0 (Numa.zone_of_addr t (512 * mib));
  Alcotest.(check int) "addr zone 1" 1 (Numa.zone_of_addr t (1500 * mib));
  (* addresses above DRAM report the last zone *)
  Alcotest.(check int) "mmio zone" 1 (Numa.zone_of_addr t (4096 * mib));
  Alcotest.(check (list int)) "cores of zone 1" [ 4; 5; 6; 7 ] (Numa.cores_of_zone t 1);
  Alcotest.(check bool) "local" true (Numa.is_local t ~core:0 ~addr:0)

let test_cost_model_reach () =
  let m = Cost_model.default in
  Alcotest.(check int) "2M reach" (32 * 2 * mib)
    (Cost_model.tlb_reach m ~page_size:Addr.Page_2m);
  Alcotest.(check bool) "4K reach includes STLB" true
    (Cost_model.tlb_reach m ~page_size:Addr.Page_4k = (64 + 1536) * 4096)

let test_cost_model_random_profile () =
  let m = Cost_model.default in
  let small, pm_small = Cost_model.random_profile m ~working_set:(16 * 1024) ~sharers:1 in
  let big, pm_big = Cost_model.random_profile m ~working_set:(512 * mib) ~sharers:1 in
  Alcotest.(check bool) "bigger ws costs more" true (big > small);
  Alcotest.(check bool) "dram fraction grows" true (pm_big > pm_small);
  Alcotest.(check bool) "fraction in [0,1]" true (pm_big <= 1.0 && pm_small >= 0.0);
  (* L3 sharing raises cost *)
  let shared, _ = Cost_model.random_profile m ~working_set:(8 * mib) ~sharers:8 in
  let alone, _ = Cost_model.random_profile m ~working_set:(8 * mib) ~sharers:1 in
  Alcotest.(check bool) "sharers raise cost" true (shared > alone)

let test_cost_model_ept_walk_order () =
  let m = Cost_model.default in
  Alcotest.(check bool) "1G cheapest" true
    (Cost_model.ept_walk_extra m Addr.Page_1g
     < Cost_model.ept_walk_extra m Addr.Page_2m
    && Cost_model.ept_walk_extra m Addr.Page_2m
       < Cost_model.ept_walk_extra m Addr.Page_4k)

let make_tlb () =
  let model = Cost_model.default in
  let rng = Covirt_sim.Rng.create ~seed:3 in
  Tlb.create ~model ~rng

let test_tlb_install_lookup () =
  let tlb = make_tlb () in
  Alcotest.(check bool) "miss" true (Tlb.lookup tlb 0x200000 = None);
  Tlb.install tlb 0x200000 ~page_size:Addr.Page_2m;
  Alcotest.(check bool) "hit same page" true
    (Option.is_some (Tlb.lookup tlb 0x3fffff));
  Alcotest.(check bool) "miss next page" true (Tlb.lookup tlb 0x400000 = None)

let test_tlb_flush_range () =
  let tlb = make_tlb () in
  Tlb.install tlb 0x200000 ~page_size:Addr.Page_2m;
  Tlb.install tlb 0x600000 ~page_size:Addr.Page_2m;
  Tlb.flush_range tlb (Region.make ~base:0x200000 ~len:Addr.page_size_2m);
  Alcotest.(check bool) "flushed" true (Tlb.lookup tlb 0x200000 = None);
  Alcotest.(check bool) "other survives" true
    (Option.is_some (Tlb.lookup tlb 0x600000))

let test_tlb_flush_all_and_counts () =
  let tlb = make_tlb () in
  Tlb.install tlb 0 ~page_size:Addr.Page_4k;
  Tlb.install tlb 8192 ~page_size:Addr.Page_4k;
  Alcotest.(check int) "two entries" 2 (Tlb.entry_count tlb);
  Tlb.flush_all tlb;
  Alcotest.(check int) "empty" 0 (Tlb.entry_count tlb);
  Alcotest.(check int) "flush counted" 1 (Tlb.flush_count tlb)

let test_tlb_eviction_bounded () =
  let tlb = make_tlb () in
  (* install far more 2M translations than there are slots *)
  for i = 0 to 99 do
    Tlb.install tlb (i * Addr.page_size_2m) ~page_size:Addr.Page_2m
  done;
  Alcotest.(check bool) "bounded by capacity" true
    (Tlb.entry_count tlb <= Cost_model.default.Cost_model.dtlb_entries_2m
                            + Cost_model.default.Cost_model.dtlb_entries_4k
                            + Cost_model.default.Cost_model.dtlb_entries_1g)

let test_tlb_miss_rates () =
  let model = Cost_model.default in
  Alcotest.(check (float 1e-9)) "small ws no misses" 0.0
    (Tlb.bulk_miss_rate ~model ~page_size:Addr.Page_2m ~working_set:mib);
  let rate =
    Tlb.bulk_miss_rate ~model ~page_size:Addr.Page_2m ~working_set:(256 * mib)
  in
  Alcotest.(check bool) "256MB/2M ~ 0.75" true (Float.abs (rate -. 0.75) < 0.01);
  let stream = Tlb.stream_miss_rate ~model ~page_size:Addr.Page_2m in
  Alcotest.(check bool) "stream rare" true (stream < 0.0001)

let test_msr_file () =
  let msrs = Msr.create () in
  Alcotest.(check bool) "efer long mode" true
    (Int64.logand (Msr.read msrs Msr.ia32_efer) 0x400L <> 0L);
  Msr.write msrs 0x123 42L;
  Alcotest.(check int64) "write/read" 42L (Msr.read msrs 0x123);
  Alcotest.(check int64) "unknown reads 0" 0L (Msr.read msrs 0x9999)

let test_msr_bitmap () =
  let bm = Msr.Bitmap.default_sensitive () in
  Alcotest.(check bool) "smm protected" true
    (Msr.Bitmap.is_protected bm Msr.ia32_smm_monitor_ctl);
  Alcotest.(check bool) "pat open" false (Msr.Bitmap.is_protected bm Msr.ia32_pat);
  Msr.Bitmap.unprotect bm Msr.ia32_smm_monitor_ctl;
  Alcotest.(check bool) "unprotected" false
    (Msr.Bitmap.is_protected bm Msr.ia32_smm_monitor_ctl)

let test_io_bitmap () =
  let bm = Io_port.Bitmap.default_sensitive () in
  Alcotest.(check bool) "reset port" true
    (Io_port.Bitmap.is_protected bm Io_port.reset_port);
  Alcotest.(check bool) "pit" true (Io_port.Bitmap.is_protected bm Io_port.pit_channel0);
  Alcotest.(check bool) "serial open" false
    (Io_port.Bitmap.is_protected bm Io_port.serial_com1);
  Alcotest.check_raises "range check"
    (Invalid_argument "Io_port.Bitmap.is_protected") (fun () ->
      ignore (Io_port.Bitmap.is_protected bm 70000))

let test_apic_irr_priority () =
  let apic = Apic.create ~apic_id:0 in
  Apic.raise_irr apic ~vector:0x40;
  Apic.raise_irr apic ~vector:0xef;
  Apic.raise_irr apic ~vector:0x80;
  Alcotest.(check (option int)) "highest first" (Some 0xef) (Apic.ack_highest apic);
  Alcotest.(check (option int)) "then 0x80" (Some 0x80) (Apic.ack_highest apic);
  Alcotest.(check (option int)) "then 0x40" (Some 0x40) (Apic.ack_highest apic);
  Alcotest.(check (option int)) "empty" None (Apic.ack_highest apic)

let test_apic_pir () =
  let apic = Apic.create ~apic_id:1 in
  Apic.pir_post apic ~vector:0x40;
  Apic.pir_post apic ~vector:0x41;
  Alcotest.(check bool) "outstanding" true (Apic.pir_outstanding apic);
  Alcotest.(check (list int)) "drain ordered" [ 0x40; 0x41 ] (Apic.pir_drain apic);
  Alcotest.(check bool) "drained" false (Apic.pir_outstanding apic);
  Alcotest.(check (list int)) "second drain empty" [] (Apic.pir_drain apic)

let test_apic_nmi_and_timer () =
  let apic = Apic.create ~apic_id:2 in
  Alcotest.(check bool) "no nmi" false (Apic.take_nmi apic);
  Apic.raise_nmi apic;
  Alcotest.(check bool) "nmi taken" true (Apic.take_nmi apic);
  Alcotest.(check bool) "cleared" false (Apic.take_nmi apic);
  Apic.set_timer_hz apic 10.0;
  Alcotest.(check (float 0.0)) "hz" 10.0 (Apic.timer_hz apic)

let mk_mem () =
  let topology = Numa.create ~zones:2 ~cores_per_zone:2 ~mem_per_zone:(1024 * mib) in
  Phys_mem.create ~topology ~host_reserved_per_zone:(128 * mib)

let test_phys_mem_reservations () =
  let mem = mk_mem () in
  Alcotest.(check bool) "host owns bottom z0" true
    (Owner.equal (Phys_mem.owner_at mem 0) Owner.Host);
  Alcotest.(check bool) "host owns bottom z1" true
    (Owner.equal (Phys_mem.owner_at mem (1024 * mib)) Owner.Host);
  Alcotest.(check bool) "rest free" true
    (Owner.equal (Phys_mem.owner_at mem (512 * mib)) Owner.Free)

let test_phys_mem_alloc () =
  let mem = mk_mem () in
  (match Phys_mem.alloc mem ~owner:(Owner.Enclave 1) ~zone:1 ~len:(64 * mib) with
  | Ok r ->
      Alcotest.(check bool) "in zone 1" true (r.Region.base >= 1024 * mib);
      Alcotest.(check bool) "2M aligned" true
        (Addr.is_aligned r.Region.base ~size:Addr.page_size_2m);
      Alcotest.(check bool) "owned" true
        (Owner.equal (Phys_mem.owner_at mem r.Region.base) (Owner.Enclave 1));
      Phys_mem.release mem r;
      Alcotest.(check bool) "freed" true
        (Owner.equal (Phys_mem.owner_at mem r.Region.base) Owner.Free)
  | Error e -> Alcotest.fail e);
  (* over-allocation fails *)
  Alcotest.(check bool) "too big fails" true
    (Result.is_error
       (Phys_mem.alloc mem ~owner:Owner.Host ~zone:0 ~len:(2048 * mib)))

let test_phys_mem_free_accounting () =
  let mem = mk_mem () in
  let before = Phys_mem.free_bytes mem ~zone:0 in
  (match Phys_mem.alloc mem ~owner:(Owner.Enclave 9) ~zone:0 ~len:(32 * mib) with
  | Ok r ->
      Alcotest.(check int) "free shrinks" (before - (32 * mib))
        (Phys_mem.free_bytes mem ~zone:0);
      Phys_mem.release mem r;
      Alcotest.(check int) "free restored" before (Phys_mem.free_bytes mem ~zone:0)
  | Error e -> Alcotest.fail e)

let test_phys_mem_devices () =
  let mem = mk_mem () in
  let window = Phys_mem.add_device mem ~name:"nic" ~len:(16 * mib) in
  Alcotest.(check bool) "above DRAM" true (window.Region.base >= Phys_mem.mmio_base mem);
  (match Phys_mem.owner_at mem window.Region.base with
  | Owner.Device d -> Alcotest.(check string) "named" "nic" d
  | _ -> Alcotest.fail "not device-owned")

let test_phys_mem_assign () =
  let mem = mk_mem () in
  let r = Region.make ~base:(256 * mib) ~len:(16 * mib) in
  (match Phys_mem.assign mem ~owner:(Owner.Enclave 2) r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "double assign fails" true
    (Result.is_error (Phys_mem.assign mem ~owner:(Owner.Enclave 3) r))

(* [Phys_mem.owns] against its per-page definition, over random maps
   built by every mutator.  Mutations land in DRAM across the top of
   zone 0's host reservation, or inside the registered device windows
   (MMIO space outside them belongs to no one yet, and [add_device]
   will claim it); queries also straddle [mmio_base].  Regions thus
   straddle owners, freed holes and the MMIO boundary. *)
type target = bool * int * int (* in MMIO space?, first page, pages *)

type mem_op =
  | Alloc of int * int * int (* owner, zone, pages *)
  | Assign of int * target (* owner, target *)
  | Release of target
  | Chown of int * target
  | Add_device of int (* pages *)

let pm_owners =
  [|
    Owner.Host; Owner.Enclave 1; Owner.Enclave 2; Owner.Free;
    Owner.Device "dev0"; Owner.Device "unmapped-mmio";
  |]

let page = Addr.page_size_4k
let dram_window = 120 * mib

let gen_mem_op =
  QCheck2.Gen.(
    let owner = int_bound (Array.length pm_owners - 1) in
    let pages = int_range 1 1100 in
    let target = triple bool (int_bound 8191) pages in
    oneof
      [
        map3 (fun o z n -> Alloc (o, z, n)) owner (int_bound 1) pages;
        map2 (fun o t -> Assign (o, t)) owner target;
        map (fun t -> Release t) target;
        map2 (fun o t -> Chown (o, t)) owner target;
        map (fun n -> Add_device n) pages;
      ])

(* The region a mutation targets, if any: device windows are
   registered back to back from [mmio_base]. *)
let target_region mem devices (in_mmio, p, n) =
  if not in_mmio then
    Some (Region.make ~base:(dram_window + (p * page)) ~len:(n * page))
  else
    Option.map
      (fun last ->
        let lo = Phys_mem.mmio_base mem and hi = Region.limit last in
        let base = lo + (p * page mod (hi - lo)) in
        Region.make ~base ~len:(Int.min (n * page) (hi - base)))
      (Phys_mem.find_device mem ~name:(Printf.sprintf "dev%d" (!devices - 1)))

let apply_mem_op mem devices op =
  let on t f = Option.iter f (target_region mem devices t) in
  match op with
  | Alloc (o, zone, n) ->
      ignore (Phys_mem.alloc mem ~owner:pm_owners.(o) ~zone ~len:(n * page))
  | Assign (o, t) ->
      on t (fun r -> ignore (Phys_mem.assign mem ~owner:pm_owners.(o) r))
  | Release t -> on t (Phys_mem.release mem)
  | Chown (o, t) -> on t (fun r -> Phys_mem.chown mem r pm_owners.(o))
  | Add_device n ->
      let name = Printf.sprintf "dev%d" !devices in
      incr devices;
      ignore (Phys_mem.add_device mem ~name ~len:(n * page))

(* A query window: inside an existing assignment (so [true] answers
   are common), or anywhere in DRAM or across [mmio_base], with a base
   that is page-aligned or not and a length that is whole pages or
   not. *)
let gen_query =
  QCheck2.Gen.(
    quad bool (int_bound 1_000_000)
      (pair (int_bound 8191) (oneof [ pure 0; int_range 1 (page - 1) ]))
      (pair (int_range 0 300) (oneof [ pure 0; int_range 1 (page - 1) ])))

let query_region mem (inside, pick, (p, off), (n, extra)) =
  let len = Int.max 1 ((n * page) + extra) in
  match Phys_mem.snapshot mem with
  | _ :: _ as assignments when inside ->
      let a, _ = List.nth assignments (pick mod List.length assignments) in
      let base = a.Region.base + ((p * page) + off) mod a.Region.len in
      Region.make ~base ~len:(Int.min len (Region.limit a - base))
  | _ ->
      let window =
        if pick land 1 = 0 then dram_window
        else Phys_mem.mmio_base mem - (8 * mib)
      in
      Region.make ~base:(window + (p * page) + off) ~len

let owns_by_pages mem owner r =
  let rec go addr =
    addr >= Region.limit r
    || (Owner.equal (Phys_mem.owner_at mem addr) owner && go (addr + page))
  in
  go r.Region.base

let prop_owns_matches_per_page =
  Covirt_test_util.Helpers.qtest ~count:150
    "Phys_mem.owns matches the per-page owner_at scan"
    QCheck2.Gen.(
      pair (list_size (int_range 0 24) gen_mem_op)
        (list_size (int_range 1 8) gen_query))
    (fun (ops, queries) ->
      let mem = mk_mem () in
      let devices = ref 0 in
      List.iter (apply_mem_op mem devices) ops;
      List.for_all
        (fun q ->
          let r = query_region mem q in
          Array.for_all
            (fun o -> Phys_mem.owns mem o r = owns_by_pages mem o r)
            pm_owners)
        queries)

let test_phys_mem_owns_cases () =
  let mem = mk_mem () in
  let r ~base ~len = Region.make ~base ~len in
  let owns o reg = Phys_mem.owns mem o reg in
  let boot =
    match Phys_mem.alloc mem ~owner:(Owner.Enclave 1) ~zone:0 ~len:(6 * mib) with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  (* a hot-add right after the boot block: two adjacent assignments *)
  let hot = r ~base:(Region.limit boot) ~len:(2 * mib) in
  (match Phys_mem.assign mem ~owner:(Owner.Enclave 1) hot with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let across = r ~base:(Region.limit boot - mib) ~len:(2 * mib) in
  Alcotest.(check bool) "across adjacent same-owner regions" true
    (owns (Owner.Enclave 1) across);
  Alcotest.(check bool) "straddles host" false
    (owns (Owner.Enclave 1) (r ~base:(boot.Region.base - page) ~len:(2 * page)));
  Alcotest.(check bool) "runs into free memory" false
    (owns (Owner.Enclave 1) (r ~base:(Region.limit hot - page) ~len:(2 * page)));
  Phys_mem.release mem (r ~base:(boot.Region.base + mib) ~len:page);
  Alcotest.(check bool) "freed hole" false
    (owns (Owner.Enclave 1) (r ~base:boot.Region.base ~len:(2 * mib)));
  Alcotest.(check bool) "the hole is free" true
    (owns Owner.Free (r ~base:(boot.Region.base + mib) ~len:page));
  (* one unaligned page start, in the page before the hole; the next
     start would fall in the hole but lies past the region's end *)
  Alcotest.(check bool) "ends short of the hole" true
    (owns (Owner.Enclave 1) (r ~base:(boot.Region.base + mib - page + 8) ~len:page));
  (* page starts step from the region's own base, as the per-page scan
     does: one byte past a page adds a start, and an unaligned base
     checks the page the base falls in *)
  Alcotest.(check bool) "a byte into the next page" false
    (owns (Owner.Enclave 1) (r ~base:(Region.limit hot - page) ~len:(page + 1)));
  Alcotest.(check bool) "unaligned base inside a page" true
    (owns (Owner.Enclave 1) (r ~base:(Region.limit hot - page + 8) ~len:(page - 8)));
  let mmio = Phys_mem.mmio_base mem in
  Alcotest.(check bool) "unmapped MMIO" true
    (owns (Owner.Device "unmapped-mmio") (r ~base:mmio ~len:(2 * page)));
  Alcotest.(check bool) "free stops at mmio_base" false
    (owns Owner.Free (r ~base:(mmio - page) ~len:(2 * page)))

let () =
  Alcotest.run "hw"
    [
      ("addr", [ Alcotest.test_case "alignment" `Quick test_addr_alignment ]);
      ("numa", [ Alcotest.test_case "mapping" `Quick test_numa_mapping ]);
      ( "cost_model",
        [
          Alcotest.test_case "tlb reach" `Quick test_cost_model_reach;
          Alcotest.test_case "random profile" `Quick test_cost_model_random_profile;
          Alcotest.test_case "ept walk order" `Quick test_cost_model_ept_walk_order;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "install/lookup" `Quick test_tlb_install_lookup;
          Alcotest.test_case "flush range" `Quick test_tlb_flush_range;
          Alcotest.test_case "flush all" `Quick test_tlb_flush_all_and_counts;
          Alcotest.test_case "eviction bounded" `Quick test_tlb_eviction_bounded;
          Alcotest.test_case "miss rates" `Quick test_tlb_miss_rates;
        ] );
      ( "msr",
        [
          Alcotest.test_case "file" `Quick test_msr_file;
          Alcotest.test_case "bitmap" `Quick test_msr_bitmap;
        ] );
      ("io", [ Alcotest.test_case "bitmap" `Quick test_io_bitmap ]);
      ( "apic",
        [
          Alcotest.test_case "irr priority" `Quick test_apic_irr_priority;
          Alcotest.test_case "posted interrupts" `Quick test_apic_pir;
          Alcotest.test_case "nmi and timer" `Quick test_apic_nmi_and_timer;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "reservations" `Quick test_phys_mem_reservations;
          Alcotest.test_case "alloc/release" `Quick test_phys_mem_alloc;
          Alcotest.test_case "free accounting" `Quick test_phys_mem_free_accounting;
          Alcotest.test_case "devices" `Quick test_phys_mem_devices;
          Alcotest.test_case "assign" `Quick test_phys_mem_assign;
          Alcotest.test_case "owns cases" `Quick test_phys_mem_owns_cases;
          prop_owns_matches_per_page;
        ] );
    ]
