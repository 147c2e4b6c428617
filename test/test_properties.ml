(* Cross-cutting property tests: algebraic laws and model invariants
   that must hold for any input, checked with qcheck. *)

open Covirt_hw
open Covirt_test_util

let mib = Covirt_sim.Units.mib

(* --- Region.Set algebra --- *)

let gen_set =
  QCheck2.Gen.(
    map
      (fun regions ->
        Region.Set.of_list
          (List.map (fun (b, l) -> Region.make ~base:b ~len:l) regions))
      (list_size (int_range 0 10) (pair (int_range 0 500) (int_range 1 50))))

let prop_union_commutes =
  Helpers.qtest "union commutes" QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Region.Set.equal (Region.Set.union a b) (Region.Set.union b a))

let prop_inter_commutes =
  Helpers.qtest "inter commutes" QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Region.Set.equal (Region.Set.inter a b) (Region.Set.inter b a))

let prop_diff_then_inter_empty =
  Helpers.qtest "diff removes intersection" QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Region.Set.is_empty (Region.Set.inter (Region.Set.diff a b) b))

let prop_union_total_bytes =
  Helpers.qtest "inclusion-exclusion on bytes" QCheck2.Gen.(pair gen_set gen_set)
    (fun (a, b) ->
      Region.Set.total_bytes (Region.Set.union a b)
      + Region.Set.total_bytes (Region.Set.inter a b)
      = Region.Set.total_bytes a + Region.Set.total_bytes b)

let prop_add_remove_roundtrip =
  Helpers.qtest "remove undoes add on disjoint region"
    QCheck2.Gen.(pair gen_set (pair (int_range 1000 2000) (int_range 1 50)))
    (fun (s, (base, len)) ->
      (* base range chosen beyond gen_set's universe: always disjoint *)
      let r = Region.make ~base ~len in
      Region.Set.equal (Region.Set.remove (Region.Set.add s r) r) s)

(* --- Cost model monotonicity --- *)

let model = Cost_model.default

let prop_random_cost_monotone_ws =
  Helpers.qtest "random cost monotone in working set"
    QCheck2.Gen.(pair (int_range 1 28) (int_range 1 28))
    (fun (a, b) ->
      let lo = 1 lsl min a b and hi = 1 lsl max a b in
      Cost_model.expected_random_cycles model ~working_set:lo ~sharers:1
      <= Cost_model.expected_random_cycles model ~working_set:hi ~sharers:1
         +. 1e-9)

let prop_random_cost_monotone_sharers =
  Helpers.qtest "random cost monotone in sharers"
    QCheck2.Gen.(pair (int_range 20 27) (pair (int_range 1 8) (int_range 1 8)))
    (fun (ws_log, (a, b)) ->
      let ws = 1 lsl ws_log in
      let lo = min a b and hi = max a b in
      Cost_model.expected_random_cycles model ~working_set:ws ~sharers:lo
      <= Cost_model.expected_random_cycles model ~working_set:ws ~sharers:hi
         +. 1e-9)

let prop_cost_bounded_by_dram =
  Helpers.qtest "random cost within [l1, dram_local]"
    QCheck2.Gen.(int_range 1 30)
    (fun ws_log ->
      let c =
        Cost_model.expected_random_cycles model ~working_set:(1 lsl ws_log)
          ~sharers:1
      in
      c >= float_of_int model.Cost_model.l1_hit
      && c <= float_of_int model.Cost_model.dram_local)

let prop_miss_rate_bounds =
  Helpers.qtest "tlb miss rate in [0,1]"
    QCheck2.Gen.(pair (oneofl [ Addr.Page_4k; Addr.Page_2m; Addr.Page_1g ])
                   (int_range 1 34))
    (fun (ps, ws_log) ->
      let r =
        Tlb.bulk_miss_rate ~model ~page_size:ps ~working_set:(1 lsl ws_log)
      in
      r >= 0.0 && r <= 1.0)

(* --- TLB/EPT interplay --- *)

let prop_tlb_never_lies_after_flush =
  (* after flush_all, lookup must miss for every previously installed
     address *)
  Helpers.qtest "flush_all forgets everything"
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 1000))
    (fun pages ->
      let tlb = Tlb.create ~model in
      List.iter
        (fun p -> Tlb.install tlb (p * Addr.page_size_4k) ~page_size:Addr.Page_4k)
        pages;
      Tlb.flush_all tlb;
      List.for_all
        (fun p -> Tlb.lookup tlb (p * Addr.page_size_4k) = None)
        pages)

let prop_flush_range_selective =
  Helpers.qtest "flush_range keeps disjoint entries"
    QCheck2.Gen.(pair (int_range 0 50) (int_range 60 120))
    (fun (flushed_page, kept_page) ->
      let tlb = Tlb.create ~model in
      let addr p = p * Addr.page_size_4k in
      Tlb.install tlb (addr flushed_page) ~page_size:Addr.Page_4k;
      Tlb.install tlb (addr kept_page) ~page_size:Addr.Page_4k;
      Tlb.flush_range tlb
        (Region.make ~base:(addr flushed_page) ~len:Addr.page_size_4k);
      Tlb.lookup tlb (addr flushed_page) = None
      && Tlb.lookup tlb (addr kept_page) <> None)

(* --- Phys_mem conservation --- *)

let prop_phys_mem_conservation =
  Helpers.qtest ~count:80 "alloc/release conserves free bytes"
    QCheck2.Gen.(list_size (int_range 1 15)
                   (pair (int_range 0 1) (int_range 1 32)))
    (fun requests ->
      let topology =
        Numa.create ~zones:2 ~cores_per_zone:2 ~mem_per_zone:(1024 * mib)
      in
      let mem = Phys_mem.create ~topology ~host_reserved_per_zone:(64 * mib) in
      let free0 =
        Phys_mem.free_bytes mem ~zone:0 + Phys_mem.free_bytes mem ~zone:1
      in
      let allocated =
        List.filter_map
          (fun (zone, len_mb) ->
            match
              Phys_mem.alloc mem ~owner:(Owner.Enclave 1) ~zone
                ~len:(len_mb * mib)
            with
            | Ok r -> Some r
            | Error _ -> None)
          requests
      in
      let mid =
        Phys_mem.free_bytes mem ~zone:0 + Phys_mem.free_bytes mem ~zone:1
      in
      let allocated_bytes =
        List.fold_left (fun acc r -> acc + r.Region.len) 0 allocated
      in
      List.iter (Phys_mem.release mem) allocated;
      let fin =
        Phys_mem.free_bytes mem ~zone:0 + Phys_mem.free_bytes mem ~zone:1
      in
      mid = free0 - allocated_bytes && fin = free0)

(* The ownership map as a newest-first list, each change a pass over
   every assignment: the implementation [Phys_mem] replaced with an
   index by base address, kept as the oracle for its answers and for
   [snapshot]'s order. *)
module List_mem = struct
  let cut l region =
    let keep, cut =
      List.partition (fun (r, _) -> not (Region.overlaps r region)) l
    in
    let remnants =
      List.concat_map
        (fun (r, o) ->
          Region.Set.to_list (Region.Set.remove (Region.Set.of_list [ r ]) region)
          |> List.map (fun r -> (r, o)))
        cut
    in
    (remnants, keep)

  let release l region =
    let remnants, keep = cut l region in
    remnants @ keep

  let chown l region owner =
    let remnants, keep = cut l region in
    ((region, owner) :: remnants) @ keep

  let owner_at l ~mmio_base addr =
    match List.find_opt (fun (r, _) -> Region.contains r addr) l with
    | Some (_, o) -> o
    | None -> if addr >= mmio_base then Owner.Device "unmapped-mmio" else Owner.Free
end

let prop_phys_mem_matches_list_model =
  Helpers.qtest ~count:150 "indexed map equals the list model"
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (triple (int_range 0 4) (int_range 0 100_000) (int_range 1 64)))
    (fun ops ->
      let topology =
        Numa.create ~zones:2 ~cores_per_zone:2 ~mem_per_zone:(256 * mib)
      in
      let mem = Phys_mem.create ~topology ~host_reserved_per_zone:(16 * mib) in
      let model = ref (Phys_mem.snapshot mem) in
      let total = Numa.total_mem topology in
      let page = Addr.page_size_4k in
      (* a 4K-aligned range of [pages] pages somewhere in (or just
         above) RAM: it may cover several assignments, part of one, or
         free space *)
      let range at pages =
        Region.make ~base:(at * page mod (total + (8 * mib))) ~len:(pages * page * 64)
      in
      let devices = ref 0 in
      List.iteri
        (fun i (op, at, n) ->
          (match op with
          | 0 -> (
              match
                Phys_mem.alloc mem ~owner:(Owner.Enclave (i mod 5)) ~zone:(at mod 2)
                  ~len:(n * mib / 2)
              with
              | Ok r -> model := (r, Owner.Enclave (i mod 5)) :: !model
              | Error _ -> ())
          | 1 ->
              let r = range at n in
              Phys_mem.release mem r;
              model := List_mem.release !model r
          | 2 -> (
              (* release exactly one current assignment *)
              match !model with
              | [] -> ()
              | l ->
                  let r, _ = List.nth l (at mod List.length l) in
                  Phys_mem.release mem r;
                  model := List_mem.release !model r)
          | 3 ->
              let r = range at n and o = Owner.Enclave (n mod 5) in
              Phys_mem.chown mem r o;
              model := List_mem.chown !model r o
          | _ ->
              incr devices;
              let name = Printf.sprintf "dev%d" !devices in
              let r = Phys_mem.add_device mem ~name ~len:(n * page) in
              model := (r, Owner.Device name) :: !model);
          if Phys_mem.snapshot mem <> !model then
            QCheck2.Test.fail_reportf "op %d: snapshot differs from the model" i;
          let mmio_base = Phys_mem.mmio_base mem in
          List.iter
            (fun (r, _) ->
              List.iter
                (fun addr ->
                  if
                    not
                      (Owner.equal (Phys_mem.owner_at mem addr)
                         (List_mem.owner_at !model ~mmio_base addr))
                  then
                    QCheck2.Test.fail_reportf "op %d: owner_at 0x%x differs" i addr)
                [ r.Region.base - 1; r.Region.base; Region.last r; Region.limit r ])
            !model)
        ops;
      true)

let prop_phys_mem_alloc_disjoint =
  Helpers.qtest ~count:80 "allocations never overlap"
    QCheck2.Gen.(list_size (int_range 2 12) (int_range 1 64))
    (fun sizes ->
      let topology =
        Numa.create ~zones:1 ~cores_per_zone:2 ~mem_per_zone:(1024 * mib)
      in
      let mem = Phys_mem.create ~topology ~host_reserved_per_zone:(64 * mib) in
      let regions =
        List.filter_map
          (fun len_mb ->
            Result.to_option
              (Phys_mem.alloc mem ~owner:Owner.Host ~zone:0 ~len:(len_mb * mib)))
          sizes
      in
      let rec pairwise_disjoint = function
        | [] -> true
        | r :: rest ->
            List.for_all (fun r' -> not (Region.overlaps r r')) rest
            && pairwise_disjoint rest
      in
      pairwise_disjoint regions)

(* --- Guest PT / EPT share walk semantics --- *)

let prop_guest_pt_matches_ept_semantics =
  Helpers.qtest ~count:60 "guest PT translate == EPT translate (identity)"
    QCheck2.Gen.(list_size (int_range 1 10)
                   (pair (int_range 0 100) (int_range 1 30)))
    (fun regions ->
      let pt = Guest_pt.create () in
      let ept = Ept.create () in
      List.iter
        (fun (page, pages) ->
          let r =
            Region.make ~base:(page * Addr.page_size_4k)
              ~len:(pages * Addr.page_size_4k)
          in
          Guest_pt.map_region pt r;
          Ept.map_region ept r)
        regions;
      List.for_all
        (fun page ->
          let addr = page * Addr.page_size_4k in
          Guest_pt.maps pt addr
          = Result.is_ok (Ept.translate ept addr ~access:`Read))
        (List.init 140 Fun.id))

(* --- RNG statistical sanity --- *)

let prop_rng_bool_probability =
  Helpers.qtest ~count:20 "Rng.bool respects p"
    QCheck2.Gen.(pair (int_range 0 1000) (float_range 0.1 0.9))
    (fun (seed, p) ->
      let rng = Covirt_sim.Rng.create ~seed in
      let n = 5000 in
      let hits = ref 0 in
      for _ = 1 to n do
        if Covirt_sim.Rng.bool rng ~p then incr hits
      done;
      let observed = float_of_int !hits /. float_of_int n in
      Float.abs (observed -. p) < 0.05)

let prop_rng_int_uniformish =
  Helpers.qtest ~count:10 "Rng.int covers the range"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Covirt_sim.Rng.create ~seed in
      let bound = 8 in
      let seen = Array.make bound false in
      for _ = 1 to 1000 do
        seen.(Covirt_sim.Rng.int rng ~bound) <- true
      done;
      Array.for_all Fun.id seen)

(* --- Machine-level safety: TSC monotonicity under arbitrary ops --- *)

type machine_op = Load | Store | Ipi | Timer | Stream | Random_access | Flops

let gen_machine_op =
  QCheck2.Gen.oneofl [ Load; Store; Ipi; Timer; Stream; Random_access; Flops ]

let prop_tsc_monotone =
  Helpers.qtest ~count:40 "TSCs never go backwards"
    QCheck2.Gen.(list_size (int_range 1 40) gen_machine_op)
    (fun ops ->
      let s =
        Helpers.boot_stack ~config:Covirt.Config.mem_ipi
          ~mem:[ (0, 256 * mib) ]
          ~cores:[ 1; 2 ] ()
      in
      let m = s.Helpers.machine in
      let ctx = Helpers.ctx s 1 in
      let buf =
        match Covirt_kitten.Kitten.kalloc s.Helpers.kitten ~bytes:(8 * mib) with
        | Ok a -> a
        | Error e -> failwith e
      in
      let snapshot () =
        Array.init (Machine.ncores m) (fun i -> Cpu.rdtsc (Machine.cpu m i))
      in
      let apply op =
        match op with
        | Load -> Covirt_kitten.Kitten.load_addr ctx buf
        | Store -> Covirt_kitten.Kitten.store_addr ctx (buf + 64)
        | Ipi -> Covirt_kitten.Kitten.send_ipi ctx ~dest:2 ~vector:0x50
        | Timer -> Machine.timer_tick m ctx.Covirt_kitten.Kitten.cpu
        | Stream ->
            Machine.charge_stream m ctx.Covirt_kitten.Kitten.cpu ~base:buf
              ~bytes:(1 * mib) ~sharers:1 ~page_size:Addr.Page_2m
        | Random_access ->
            Machine.charge_random m ctx.Covirt_kitten.Kitten.cpu ~ops:1000
              ~base:buf ~working_set:(8 * mib) ~sharers:1
              ~page_size:Addr.Page_2m
        | Flops -> Machine.charge_flops m ctx.Covirt_kitten.Kitten.cpu 5000
      in
      List.for_all
        (fun op ->
          let before = snapshot () in
          apply op;
          let after = snapshot () in
          Array.for_all2 (fun a b -> b >= a) before after)
        ops)

(* --- Whitelist --- *)

let prop_whitelist_grant_revoke_involution =
  Helpers.qtest "revoke undoes grant"
    QCheck2.Gen.(pair (int_range 32 255) (int_range 0 9))
    (fun (vector, dest) ->
      let wl = Covirt.Whitelist.create ~enclave_cores:[ 1 ] in
      let icr = { Apic.dest; vector; kind = Apic.Fixed } in
      let before = Covirt.Whitelist.permits wl ~icr in
      Covirt.Whitelist.grant wl ~vector ~dest;
      let during = Covirt.Whitelist.permits wl ~icr in
      Covirt.Whitelist.revoke wl ~vector;
      let after = Covirt.Whitelist.permits wl ~icr in
      during && after = before)

let () =
  Alcotest.run "properties"
    [
      ( "region-algebra",
        [
          prop_union_commutes;
          prop_inter_commutes;
          prop_diff_then_inter_empty;
          prop_union_total_bytes;
          prop_add_remove_roundtrip;
        ] );
      ( "cost-model",
        [
          prop_random_cost_monotone_ws;
          prop_random_cost_monotone_sharers;
          prop_cost_bounded_by_dram;
          prop_miss_rate_bounds;
        ] );
      ( "tlb",
        [ prop_tlb_never_lies_after_flush; prop_flush_range_selective ] );
      ( "phys-mem",
        [
          prop_phys_mem_conservation;
          prop_phys_mem_alloc_disjoint;
          prop_phys_mem_matches_list_model;
        ] );
      ("paging", [ prop_guest_pt_matches_ept_semantics ]);
      ("rng", [ prop_rng_bool_probability; prop_rng_int_uniformish ]);
      ("machine", [ prop_tsc_monotone ]);
      ("whitelist", [ prop_whitelist_grant_revoke_involution ]);
    ]
