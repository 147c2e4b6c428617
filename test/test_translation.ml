(* Translation fast-path tests: set-associative TLB behaviour, walk-
   and covers-cache invalidation on the EPT, equivalence of cached and
   uncached translation, and the memoized bulk charge models. *)

open Covirt_hw

let k4 = Addr.page_size_4k
let m2 = Addr.page_size_2m
let mib = Covirt_sim.Units.mib

let make_tlb () =
  Tlb.create ~model:Cost_model.default

let test_geometry () =
  let tlb = make_tlb () in
  let sets, ways = Tlb.geometry tlb Addr.Page_4k in
  Alcotest.(check int) "4K capacity" Cost_model.default.Cost_model.dtlb_entries_4k
    (sets * ways);
  Alcotest.(check bool) "sets is a power of two" true (sets land (sets - 1) = 0)

let test_set_conflict_eviction () =
  let tlb = make_tlb () in
  let sets, ways = Tlb.geometry tlb Addr.Page_4k in
  (* Fill one set: vpns congruent mod [sets] all index the same set. *)
  let conflicting = List.init ways (fun i -> i * sets) in
  List.iter (fun vpn -> Tlb.install tlb (vpn * k4) ~page_size:Addr.Page_4k)
    conflicting;
  Alcotest.(check int) "set full" ways (Tlb.entry_count tlb);
  (* Touch the oldest entry so it becomes most-recently-used ... *)
  Alcotest.(check bool) "touch hit" true (Tlb.lookup tlb 0 >= 0);
  (* ... then overflow the set: the victim must be the stalest way
     (vpn [sets], installed second), never the touched one. *)
  Tlb.install tlb (ways * sets * k4) ~page_size:Addr.Page_4k;
  Alcotest.(check int) "still full, one evicted" ways (Tlb.entry_count tlb);
  Alcotest.(check bool) "MRU survived" true (Tlb.lookup tlb 0 >= 0);
  Alcotest.(check bool) "stalest evicted" true
    (Tlb.lookup tlb (sets * k4) < 0);
  Alcotest.(check bool) "newcomer present" true
    (Tlb.lookup tlb (ways * sets * k4) >= 0)

let test_install_refreshes_existing () =
  let tlb = make_tlb () in
  Tlb.install tlb (5 * k4) ~page_size:Addr.Page_4k;
  Tlb.install tlb (5 * k4) ~page_size:Addr.Page_4k;
  Alcotest.(check int) "no duplicate slot" 1 (Tlb.entry_count tlb)

let test_flush_range_precision () =
  let tlb = make_tlb () in
  Tlb.install tlb (5 * k4) ~page_size:Addr.Page_4k;
  Tlb.install tlb (6 * k4) ~page_size:Addr.Page_4k;
  Tlb.install tlb m2 ~page_size:Addr.Page_2m;
  (* One-page flush: only the exact page goes. *)
  Tlb.flush_range tlb (Region.make ~base:(6 * k4) ~len:k4);
  Alcotest.(check bool) "vpn 5 kept" true (Tlb.lookup tlb (5 * k4) >= 0);
  Alcotest.(check bool) "vpn 6 flushed" true (Tlb.lookup tlb (6 * k4) < 0);
  Alcotest.(check bool) "2M page kept" true (Tlb.lookup tlb (m2 + 0x40) >= 0);
  (* A flush overlapping the 2M page's tail catches it even though the
     region starts mid-page. *)
  Tlb.flush_range tlb (Region.make ~base:(m2 + (17 * k4)) ~len:k4);
  Alcotest.(check bool) "2M page flushed by interior overlap" true
    (Tlb.lookup tlb (m2 + 0x40) < 0);
  Alcotest.(check bool) "vpn 5 still kept" true (Tlb.lookup tlb (5 * k4) >= 0)

let test_flush_range_wide () =
  let tlb = make_tlb () in
  let sets, _ = Tlb.geometry tlb Addr.Page_4k in
  (* Spread entries across every set, then flush a region wider than
     the set count: everything inside goes, everything outside stays. *)
  List.iter (fun i -> Tlb.install tlb (i * k4) ~page_size:Addr.Page_4k)
    (List.init sets Fun.id);
  Tlb.install tlb (4 * sets * k4) ~page_size:Addr.Page_4k;
  Tlb.flush_range tlb (Region.make ~base:0 ~len:(2 * sets * k4));
  Alcotest.(check int) "only the outsider survives" 1 (Tlb.entry_count tlb);
  Alcotest.(check bool) "outsider intact" true
    (Tlb.lookup tlb (4 * sets * k4) >= 0)

(* The TLB without its last-hit memo: every lookup probes the 4K, 2M
   and 1G banks in turn.  Lookup and install are [Tlb]'s code as it
   stood before the memo, copied rather than shared so the reference
   cannot pick up a memo bug; [flush_range] scans every slot instead
   of only the sets a small region indexes. *)
module Ref_tlb = struct
  type bank = {
    sets : int;
    ways : int;
    vpns : int array; (* -1 when empty *)
    stamps : int array;
  }

  type t = {
    b4k : bank;
    b2m : bank;
    b1g : bank;
    mutable flushes : int;
    mutable tick : int;
  }

  let make_bank entries =
    let sets, ways = Cost_model.tlb_geometry ~entries in
    {
      sets;
      ways;
      vpns = Array.make (sets * ways) (-1);
      stamps = Array.make (sets * ways) 0;
    }

  let create ~model =
    {
      b4k = make_bank model.Cost_model.dtlb_entries_4k;
      b2m = make_bank model.Cost_model.dtlb_entries_2m;
      b1g = make_bank model.Cost_model.dtlb_entries_1g;
      flushes = 0;
      tick = 0;
    }

  let bank_for t = function
    | Addr.Page_4k -> t.b4k
    | Addr.Page_2m -> t.b2m
    | Addr.Page_1g -> t.b1g

  let touch t b slot = b.stamps.(slot) <- (t.tick <- t.tick + 1; t.tick)

  let rec probe_way vpns vpn base w ways =
    if w >= ways then -1
    else if vpns.(base + w) = vpn then base + w
    else probe_way vpns vpn base (w + 1) ways

  let bank_slot b vpn =
    probe_way b.vpns vpn (vpn land (b.sets - 1) * b.ways) 0 b.ways

  (* The bank's [Addr.page_size_code] on a hit, -1 on a miss. *)
  let lookup t addr =
    let s = bank_slot t.b4k (Addr.pfn addr ~size:Addr.page_size_4k) in
    if s >= 0 then begin
      touch t t.b4k s;
      0
    end
    else
      let s = bank_slot t.b2m (Addr.pfn addr ~size:Addr.page_size_2m) in
      if s >= 0 then begin
        touch t t.b2m s;
        1
      end
      else
        let s = bank_slot t.b1g (Addr.pfn addr ~size:Addr.page_size_1g) in
        if s >= 0 then begin
          touch t t.b1g s;
          2
        end
        else -1

  let install t addr ~page_size =
    let vpn = Addr.pfn addr ~size:(Addr.bytes_of_page_size page_size) in
    let b = bank_for t page_size in
    let base = vpn land (b.sets - 1) * b.ways in
    let victim = ref (-1) in
    let free = ref (-1) in
    let stalest = ref base in
    for w = b.ways - 1 downto 0 do
      let slot = base + w in
      let v = b.vpns.(slot) in
      if v < 0 then free := slot
      else if v = vpn then victim := slot
      else if b.stamps.(slot) <= b.stamps.(!stalest) then stalest := slot
    done;
    let slot =
      if !victim >= 0 then !victim else if !free >= 0 then !free else !stalest
    in
    b.vpns.(slot) <- vpn;
    touch t b slot

  let flush_all t =
    List.iter
      (fun b -> Array.fill b.vpns 0 (Array.length b.vpns) (-1))
      [ t.b4k; t.b2m; t.b1g ];
    t.flushes <- t.flushes + 1

  let flush_range t region =
    let scrub ps =
      let bytes = Addr.bytes_of_page_size ps in
      let b = bank_for t ps in
      let vpn_lo = region.Region.base / bytes in
      let vpn_hi = (Region.limit region - 1) / bytes in
      Array.iteri
        (fun i v -> if v >= vpn_lo && v <= vpn_hi then b.vpns.(i) <- -1)
        b.vpns
    in
    List.iter scrub [ Addr.Page_4k; Addr.Page_2m; Addr.Page_1g ]

  let entry_count t =
    List.fold_left
      (fun n b -> Array.fold_left (fun n v -> if v < 0 then n else n + 1) n b.vpns)
      0 [ t.b4k; t.b2m; t.b1g ]
end

(* Property: the memoized [Tlb] and the probe-only reference, driven
   by one random sequence of lookups, installs and flushes, answer
   every lookup alike and agree on live entries, flushes and the
   pseudo-LRU clock after every op.  Few entries per bank, so installs
   evict; few pages in a small address window, so 4K pages share 2M
   and 1G pages and lookups repeat the last page (the memo's hit). *)
let small_tlb_model =
  { Cost_model.default with
    Cost_model.dtlb_entries_4k = 8;
    dtlb_entries_2m = 4;
    dtlb_entries_1g = 2 }

let gen_tlb_addr =
  QCheck2.Gen.(
    map
      (fun (g, m, p, off) ->
        (g * Addr.page_size_1g) + (m * m2) + (p * k4) + off)
      (quad (int_range 0 2) (int_range 0 2) (int_range 0 5)
         (int_range 0 (k4 - 1))))

let gen_tlb_ops =
  QCheck2.Gen.(
    list_size (int_range 1 200)
      (frequency
         [
           (4, map (fun a -> `Lookup a) gen_tlb_addr);
           (4, map (fun off -> `Again off) (int_range 0 (k4 - 1)));
           ( 3,
             map2
               (fun a ps -> `Install (a, ps))
               gen_tlb_addr
               (oneofl [ Addr.Page_4k; Addr.Page_2m; Addr.Page_1g ]) );
           (1, pure `Flush_all);
           ( 2,
             map2
               (fun a len -> `Flush_range (a - (a mod k4), len))
               gen_tlb_addr
               (oneofl [ k4; 2 * k4; m2; m2 + k4; Addr.page_size_1g ]) );
         ]))

let prop_tlb_memo_equals_probe =
  Covirt_test_util.Helpers.qtest ~count:300 "memoized TLB = probe-only TLB"
    gen_tlb_ops
    (fun ops ->
      let tlb = Tlb.create ~model:small_tlb_model in
      let reference = Ref_tlb.create ~model:small_tlb_model in
      let last = ref 0 in
      let lookup addr =
        last := addr;
        Tlb.lookup tlb addr = Ref_tlb.lookup reference addr
      in
      List.for_all
        (fun op ->
          let answers =
            match op with
            | `Lookup a -> lookup a
            | `Again off -> lookup (!last - (!last mod k4) + off)
            | `Install (a, page_size) ->
                Tlb.install tlb a ~page_size;
                Ref_tlb.install reference a ~page_size;
                true
            | `Flush_all ->
                Tlb.flush_all tlb;
                Ref_tlb.flush_all reference;
                true
            | `Flush_range (base, len) ->
                let r = Region.make ~base ~len in
                Tlb.flush_range tlb r;
                Ref_tlb.flush_range reference r;
                true
          in
          answers
          && Tlb.entry_count tlb = Ref_tlb.entry_count reference
          && Tlb.flush_count tlb = reference.Ref_tlb.flushes
          && Tlb.tick tlb = reference.Ref_tlb.tick)
        ops)

(* ------------------------------------------------------------------ *)

let test_walk_cache_invalidation () =
  let ept = Ept.create () in
  Ept.map_region ept (Region.make ~base:0 ~len:m2);
  Alcotest.(check bool) "mapped" true
    (Result.is_ok (Ept.translate ept 0x1000 ~access:`Read));
  let hits0, _ = Ept.walk_cache_stats ept in
  Alcotest.(check bool) "second translate hits the cache" true
    (Result.is_ok (Ept.translate ept 0x1800 ~access:`Read)
    && fst (Ept.walk_cache_stats ept) > hits0);
  Ept.unmap_region ept (Region.make ~base:0 ~len:m2);
  (match Ept.translate ept 0x1000 ~access:`Read with
  | Error v -> Alcotest.(check bool) "unmapped" true (v.Ept.reason = `Not_mapped)
  | Ok _ -> Alcotest.fail "stale walk cache served an unmapped page");
  Ept.map_region ept (Region.make ~base:0 ~len:m2);
  Alcotest.(check bool) "remap visible" true
    (Result.is_ok (Ept.translate ept 0x1000 ~access:`Write))

let test_covers_memo_invalidation () =
  let ept = Ept.create () in
  Ept.map_region ept (Region.make ~base:0 ~len:m2);
  Alcotest.(check bool) "covered" true (Ept.covers ept ~base:0 ~len:m2);
  Alcotest.(check bool) "covered (memo)" true (Ept.covers ept ~base:0 ~len:m2);
  Ept.unmap_region ept (Region.make ~base:0 ~len:(16 * k4));
  Alcotest.(check bool) "hole visible despite memo" false
    (Ept.covers ept ~base:0 ~len:m2)

(* Property: with the walk cache on, every translate in a random
   map/unmap/translate interleaving answers exactly as the uncached
   reference does — including probes of stale windows right after the
   mutation that invalidated them.  Each op lands in one of four
   windows 2 GiB apart: 2 GiB is a multiple of the cache's reach at
   256 and at 1024 slots, so ops in different windows fight over the
   same cache slots. *)
let alias_stride = 2048 * mib

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (quad (oneofl [ `Map; `Unmap; `Probe ]) (int_range 0 3)
         (int_range 0 600) (int_range 1 64)))

let prop_cached_equals_uncached =
  Covirt_test_util.Helpers.qtest ~count:80 "cached translate = uncached"
    gen_ops
    (fun ops ->
      let cached = Ept.create ~max_page:Addr.Page_2m () in
      let plain = Ept.create ~max_page:Addr.Page_2m ~walk_cache:false () in
      List.for_all
        (fun (op, alias, page, pages) ->
          let base = (alias * alias_stride) + (page * k4) in
          let r = Region.make ~base ~len:(pages * k4) in
          match op with
          | `Map ->
              Ept.map_region cached r;
              Ept.map_region plain r;
              true
          | `Unmap ->
              Ept.unmap_region cached r;
              Ept.unmap_region plain r;
              true
          | `Probe ->
              List.for_all
                (fun i ->
                  let addr = base + (i * k4) in
                  Ept.translate cached addr ~access:`Read
                  = Ept.translate plain addr ~access:`Read)
                (List.init 80 Fun.id))
        ops)

(* Directed aliasing: windows that share a walk-cache slot but resolve
   differently — a 4K PT window, a read-only 2M leaf, a 1G leaf and an
   unmapped window — translated round-robin, so every probe evicts the
   previous window's entry.  Each answer must be the uncached one. *)
let test_walk_cache_aliasing () =
  let cached = Ept.create () in
  let plain = Ept.create ~walk_cache:false () in
  let both f = f cached; f plain in
  both (fun e -> Ept.map_region e (Region.make ~base:0 ~len:(256 * k4)));
  both (fun e ->
      Ept.map_region e ~perms:Ept.ro
        (Region.make ~base:alias_stride ~len:m2));
  both (fun e ->
      Ept.map_region e (Region.make ~base:(2 * alias_stride) ~len:(1024 * mib)));
  let windows = [| 0; alias_stride; 2 * alias_stride; 3 * alias_stride |] in
  let _, misses0 = Ept.walk_cache_stats cached in
  for i = 0 to 1023 do
    let addr = windows.(i land 3) + ((i lsr 2) * k4) + 8 in
    List.iter
      (fun access ->
        if Ept.translate cached addr ~access <> Ept.translate plain addr ~access
        then Alcotest.failf "aliased window 0x%x (%s) differs from the walk" addr
            (match access with `Read -> "read" | `Write -> "write" | `Exec -> "exec"))
      [ `Read; `Write ]
  done;
  let _, misses1 = Ept.walk_cache_stats cached in
  Alcotest.(check bool) "the four windows evict each other" true
    (misses1 - misses0 >= 1024);
  Alcotest.(check (list (pair string int))) "leaf sizes differ"
    [ ("4k", 256); ("2m", 1); ("1g", 1) ]
    (let n4k, n2m, n1g = Ept.leaf_counts cached in
     [ ("4k", n4k); ("2m", n2m); ("1g", n1g) ])

(* ------------------------------------------------------------------ *)

let make_machine () =
  Machine.create ~zones:1 ~cores_per_zone:1 ~mem_per_zone:(64 * mib)
    ~host_reserved_per_zone:(16 * mib) ()

let test_charge_memo_identical () =
  let m = make_machine () in
  let cpu = Machine.cpu m 0 in
  let charge () =
    let t0 = Cpu.rdtsc cpu in
    Machine.charge_random m cpu ~ops:5000 ~base:(32 * mib)
      ~working_set:(8 * mib) ~sharers:2 ~page_size:Addr.Page_2m;
    Cpu.rdtsc cpu - t0
  in
  let first = charge () in
  let second = charge () in
  Alcotest.(check int) "memoized charge is bit-identical" first second;
  let hits, misses = Charge_memo.stats m.Machine.charge_memo in
  Alcotest.(check bool) "memo hit on repeat" true (hits >= 1 && misses >= 1)

let test_charge_memo_invalidation () =
  let m = make_machine () in
  let cpu = Machine.cpu m 0 in
  let stream () =
    Machine.charge_stream m cpu ~base:(32 * mib) ~bytes:(4 * mib) ~sharers:1
      ~page_size:Addr.Page_2m
  in
  stream ();
  stream ();
  let _, misses_settled = Charge_memo.stats m.Machine.charge_memo in
  (* Background pressure changes the cost inputs: the memo must not
     serve the pre-pressure figure. *)
  Machine.set_background_streamers m ~zone:0 2;
  let t0 = Cpu.rdtsc cpu in
  stream ();
  let with_pressure = Cpu.rdtsc cpu - t0 in
  let _, misses_after = Charge_memo.stats m.Machine.charge_memo in
  Alcotest.(check bool) "new key after pressure change" true
    (misses_after > misses_settled);
  let t1 = Cpu.rdtsc cpu in
  stream ();
  let with_pressure' = Cpu.rdtsc cpu - t1 in
  Alcotest.(check int) "stable under pressure" with_pressure with_pressure'

(* ------------------------------------------------------------------ *)
(* The zero-GC hot-path contract (DESIGN.md §13): warm TLB lookups,
   warm EPT translations and memoized bulk charges allocate exactly
   zero minor words — with observability off and on, and inside fleet
   shards at any domain count. *)

(* Minor words allocated by [reps] calls of [f], after a warmup that
   fills caches/memos and forces lazy metric cells.  [Gc.minor_words]
   boxes its own float result after sampling, so the [before] sample's
   box lands inside the window; the no-op calibration subtracts it,
   making "exactly zero" assertable. *)
let minor_words_of f reps =
  for _ = 1 to 128 do f () done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to reps do f () done;
  let after = Gc.minor_words () in
  after -. before

let noop () = ()

(* Exact-zero claims hold only under the native compiler; bytecode
   boxes float temporaries the optimizer keeps in registers. *)
let native = Sys.backend_type = Sys.Native

let alloc_words f =
  let reps = 5000 in
  let calib = minor_words_of noop reps in
  minor_words_of f reps -. calib

let check_zero_alloc name f =
  if native then Alcotest.(check (float 0.0)) name 0.0 (alloc_words f)

let with_obs f =
  Covirt_obs.Metrics.enable ();
  Fun.protect ~finally:Covirt_obs.Metrics.disable f

let make_warm_tlb () =
  let tlb = make_tlb () in
  let sets, ways = Tlb.geometry tlb Addr.Page_4k in
  let n = sets * ways in
  for i = 0 to n - 1 do
    Tlb.install tlb (i * k4) ~page_size:Addr.Page_4k
  done;
  (tlb, n)

let test_tlb_lookup_zero_alloc () =
  let tlb, n = make_warm_tlb () in
  let i = ref 0 in
  check_zero_alloc "warm Tlb.lookup allocates nothing" (fun () ->
      incr i;
      ignore (Tlb.lookup tlb ((!i land (n - 1)) * k4)));
  check_zero_alloc "Tlb.install allocates nothing" (fun () ->
      incr i;
      Tlb.install tlb ((!i land (n - 1)) * k4) ~page_size:Addr.Page_4k);
  check_zero_alloc "Tlb.lookup miss allocates nothing" (fun () ->
      incr i;
      ignore (Tlb.lookup tlb ((n + (!i land 1023)) * k4)))

let test_tlb_lookup_zero_alloc_obs_on () =
  with_obs (fun () ->
      let tlb, n = make_warm_tlb () in
      let i = ref 0 in
      check_zero_alloc "warm Tlb.lookup, metrics recording" (fun () ->
          incr i;
          ignore (Tlb.lookup tlb ((!i land (n - 1)) * k4)));
      check_zero_alloc "Tlb.lookup miss, metrics recording" (fun () ->
          incr i;
          ignore (Tlb.lookup tlb ((n + (!i land 1023)) * k4))))

let make_warm_ept () =
  let len = 8 * mib in
  let ept = Ept.create ~max_page:Addr.Page_4k () in
  Ept.map_region ept (Region.make ~base:0 ~len);
  for p = 0 to (len / k4) - 1 do
    ignore (Ept.translate_code ept (p * k4) ~access:`Read)
  done;
  (ept, len)

let test_ept_translate_zero_alloc () =
  let ept, len = make_warm_ept () in
  let i = ref 0 in
  check_zero_alloc "warm Ept.translate_code allocates nothing" (fun () ->
      incr i;
      ignore
        (Ept.translate_code ept ((!i * k4 + 8) land (len - 1)) ~access:`Read))

let test_ept_translate_zero_alloc_obs_on () =
  with_obs (fun () ->
      let ept, len = make_warm_ept () in
      let i = ref 0 in
      check_zero_alloc "warm Ept.translate_code, metrics recording"
        (fun () ->
          incr i;
          ignore
            (Ept.translate_code ept
               ((!i * k4 + 8) land (len - 1))
               ~access:`Read)))

let test_charge_zero_alloc () =
  let m = make_machine () in
  let cpu = Machine.cpu m 0 in
  check_zero_alloc "memoized charge_random allocates nothing" (fun () ->
      Machine.charge_random m cpu ~ops:100 ~base:(32 * mib)
        ~working_set:(8 * mib) ~sharers:2 ~page_size:Addr.Page_2m);
  check_zero_alloc "memoized charge_stream allocates nothing" (fun () ->
      Machine.charge_stream m cpu ~base:(32 * mib) ~bytes:(4 * mib)
        ~sharers:1 ~page_size:Addr.Page_2m)

let test_charge_zero_alloc_obs_on () =
  with_obs (fun () ->
      let m = make_machine () in
      let cpu = Machine.cpu m 0 in
      check_zero_alloc "memoized charge_random, metrics recording"
        (fun () ->
          Machine.charge_random m cpu ~ops:100 ~base:(32 * mib)
            ~working_set:(8 * mib) ~sharers:2 ~page_size:Addr.Page_2m))

let test_apic_ack_zero_alloc () =
  let apic = Apic.create () in
  let v = ref 0 in
  check_zero_alloc "Apic.raise_irr + ack_highest allocate nothing" (fun () ->
      v := (!v + 1) land 0xff;
      Apic.raise_irr apic ~vector:!v;
      ignore (Apic.ack_highest apic))

(* A warm granular store of the writer's own memory — translate,
   ownership lookup, charge — with metrics off and on. *)
let test_store_zero_alloc () =
  let check () =
    let m = make_machine () in
    let cpu = Machine.cpu m 0 in
    cpu.Cpu.owner <- Owner.Enclave 1;
    let r =
      match
        Phys_mem.alloc m.Machine.mem ~owner:(Owner.Enclave 1) ~zone:0
          ~len:(4 * mib)
      with
      | Ok r -> r
      | Error e -> Alcotest.fail e
    in
    check_zero_alloc "warm Machine.store allocates nothing" (fun () ->
        Machine.store m cpu (r.Region.base + 64))
  in
  check ();
  with_obs check

(* The same store from an enclave core under mem+ipi: guest mode with
   the EPT on, and every store after the first repeats the page of the
   TLB's last hit. *)
let test_guest_store_zero_alloc () =
  let check () =
    let node =
      Covirt_hobbes.Hobbes.create_node ~seed:13 ~zones:1 ~cores_per_zone:2
        ~mem_mib_per_zone:256 ()
    in
    ignore
      (Covirt.enable (Covirt_hobbes.Hobbes.pisces node)
         ~config:Covirt.Config.mem_ipi);
    let kernel =
      match
        Covirt_hobbes.Hobbes.launch_enclave node ~name:"writer" ~cores:[ 1 ]
          ~mem:[ (0, 32 * mib) ] ()
      with
      | Ok (_, k) -> k
      | Error e -> Alcotest.fail e
    in
    let ctx = Covirt_kitten.Kitten.context kernel ~core:1 in
    let cpu = ctx.Covirt_kitten.Kitten.cpu in
    Alcotest.(check bool) "enclave core in guest mode" true (Cpu.in_guest cpu);
    let addr =
      match Covirt_kitten.Kitten.kalloc kernel ~bytes:k4 with
      | Ok a -> a + 64
      | Error e -> Alcotest.fail e
    in
    check_zero_alloc "warm guest-mode Machine.store allocates nothing"
      (fun () -> Machine.store ctx.Covirt_kitten.Kitten.machine cpu addr)
  in
  check ();
  with_obs check

(* One delivered exit per reason that neither kills nor reports,
   through the handler the hypervisor installed at launch, each filling
   the VMCS's preallocated exit record.  Then a whole doorbell: an ICR
   write that exits, is allowed, and lands in the enclave's own ISR.
   Obs off only: with metrics on, [Covirt_obs.Vmexit.record] builds a
   label per exit. *)
let test_exit_roundtrip_zero_alloc () =
  let node =
    Covirt_hobbes.Hobbes.create_node ~seed:13 ~zones:1 ~cores_per_zone:2
      ~mem_mib_per_zone:256 ()
  in
  ignore
    (Covirt.enable (Covirt_hobbes.Hobbes.pisces node)
       ~config:Covirt.Config.mem_ipi);
  let kernel =
    match
      Covirt_hobbes.Hobbes.launch_enclave node ~name:"exits" ~cores:[ 1 ]
        ~mem:[ (0, 32 * mib) ] ()
    with
    | Ok (_, k) -> k
    | Error e -> Alcotest.fail e
  in
  let ctx = Covirt_kitten.Kitten.context kernel ~core:1 in
  let cpu = ctx.Covirt_kitten.Kitten.cpu in
  let vmcs =
    match Cpu.vmcs cpu with
    | Some v -> v
    | None -> Alcotest.fail "enclave core not in guest mode"
  in
  let model = ctx.Covirt_kitten.Kitten.machine.Machine.model in
  List.iter
    (fun (reason, qual, addr, value) ->
      check_zero_alloc
        (Vmcs.exit_reason_names.(Vmcs.code reason) ^ " exit allocates nothing")
        (fun () ->
          Vmcs.set_exit vmcs reason ~qual ~addr ~value;
          match Vmx.deliver_exit ~model cpu vmcs with
          | `Resume | `Skip -> ()))
    [
      (Vmcs.Icr_write, Apic.kind_code Apic.Fixed, 1, 0x40);
      (Vmcs.Msr_access, 0, Msr.ia32_pat, 0);
      (Vmcs.Cpuid, 0, 0, 0);
      (Vmcs.Xsetbv, 0, 0, 0);
      (Vmcs.Hlt, 0, 0, 0);
      (Vmcs.External_interrupt, 0, 0, 0xef);
      (Vmcs.Nmi_exit, 0, 0, 0);
    ];
  check_zero_alloc "doorbell to an own core allocates nothing" (fun () ->
      Covirt_kitten.Kitten.send_ipi ctx ~dest:1 ~vector:0x40)

(* Every enclave launch builds two tables: the EPT Pisces prepares
   before boot and the guest's direct map Kitten builds at boot.
   Neither may allocate a major-heap block (the walk cache's arrays
   are sized to stay minor-heap blocks) or force a minor collection.
   Holds under either backend: sizes of fresh blocks do not depend on
   float boxing. *)
let test_table_create_minor_heap_only () =
  let check name f =
    Gc.minor ();
    let _, _, major0 = Gc.counters () in
    let collections0 = (Gc.quick_stat ()).Gc.minor_collections in
    ignore (Sys.opaque_identity (f ()));
    let _, _, major1 = Gc.counters () in
    let collections1 = (Gc.quick_stat ()).Gc.minor_collections in
    Alcotest.(check (float 0.0)) (name ^ ": major words") 0.0 (major1 -. major0);
    Alcotest.(check int) (name ^ ": minor collections") 0
      (collections1 - collections0)
  in
  check "Ept.create" (fun () -> Ept.create ());
  check "Guest_pt.direct_map" (fun () ->
      Guest_pt.direct_map ~total_mem:((4 * 1024 * mib) + (24 * mib)))

(* The same contract must hold inside fleet shards, whatever the
   domain placement: each shard builds its own machine stack and
   measures its own warm path in its own domain. *)
let test_fleet_sharded_zero_alloc () =
  List.iter
    (fun domains ->
      let words =
        Covirt_fleet.Fleet.map ~domains ~seed:99 ~shards:4
          (fun ~shard_seed ~index ->
            ignore shard_seed;
            ignore index;
            let m = make_machine () in
            let cpu = Machine.cpu m 0 in
            let tlb, n = make_warm_tlb () in
            let i = ref 0 in
            let work () =
              incr i;
              ignore (Tlb.lookup tlb ((!i land (n - 1)) * k4));
              Machine.charge_random m cpu ~ops:100 ~base:(32 * mib)
                ~working_set:(8 * mib) ~sharers:2 ~page_size:Addr.Page_2m
            in
            alloc_words work)
      in
      if native then
        Array.iteri
          (fun s w ->
            Alcotest.(check (float 0.0))
              (Printf.sprintf "shard %d at domains:%d allocates nothing" s
                 domains)
              0.0 w)
          words)
    [ 1; 2; 7 ]

(* ------------------------------------------------------------------ *)
(* The walk-cache generation counter must never move on read-only
   paths — a read that bumped it would re-invalidate the cache on
   every probe, which is exactly the warm-EPT-slower-than-cold anomaly
   the zero-GC rewrite removed.  Checked with observability recording,
   so metric emission can't sneak a bump in either. *)
let test_generation_stable_under_reads () =
  with_obs (fun () ->
      let ept = Ept.create ~max_page:Addr.Page_4k () in
      Ept.map_region ept (Region.make ~base:0 ~len:m2);
      Ept.map_region ept ~perms:Ept.ro
        (Region.make ~base:m2 ~len:m2);
      let gen = Ept.generation ept in
      for i = 0 to 4095 do
        (* hits, permission denials, and hard misses *)
        ignore (Ept.translate_code ept ((i land 511) * k4) ~access:`Read);
        ignore (Ept.translate_code ept (m2 + (i land 511) * k4) ~access:`Write);
        ignore (Ept.translate_code ept ((4 * m2) + (i * k4)) ~access:`Read);
        ignore (Ept.covers ept ~base:0 ~len:m2);
        ignore (Ept.page_size_at ept ((i land 511) * k4))
      done;
      Alcotest.(check int) "generation unchanged by read-only paths" gen
        (Ept.generation ept);
      let hits, _ = Ept.walk_cache_stats ept in
      Alcotest.(check bool) "walk cache actually hit" true (hits > 0))

(* Timing regression for the anomaly itself: a warm (walk-cache hit)
   translate must not cost more than the uncached full walk it
   short-circuits.  Floor latency (min of N) on both sides keeps the
   comparison robust against preemption noise; the real margin is
   several-fold, so no slack factor is needed. *)
let test_warm_not_slower_than_uncached () =
  let len = 8 * mib in
  let build walk_cache =
    let ept = Ept.create ~max_page:Addr.Page_4k ~walk_cache () in
    Ept.map_region ept (Region.make ~base:0 ~len);
    for p = 0 to (len / k4) - 1 do
      ignore (Ept.translate_code ept (p * k4) ~access:`Read)
    done;
    ept
  in
  let warm = build true in
  let cold = build false in
  let floor_ns ept =
    let iters = 50_000 in
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      for i = 1 to iters do
        ignore
          (Ept.translate_code ept ((i * k4 + 8) land (len - 1)) ~access:`Read)
      done;
      let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
      if ns < !best then best := ns
    done;
    !best
  in
  let cold_ns = floor_ns cold in
  let warm_ns = floor_ns warm in
  Alcotest.(check bool)
    (Printf.sprintf "warm translate (%.1fns) <= uncached walk (%.1fns)"
       warm_ns cold_ns)
    true (warm_ns <= cold_ns)

let () =
  Alcotest.run "translation"
    [
      ( "tlb",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "set-conflict eviction" `Quick
            test_set_conflict_eviction;
          Alcotest.test_case "install refreshes" `Quick
            test_install_refreshes_existing;
          Alcotest.test_case "flush_range precision" `Quick
            test_flush_range_precision;
          Alcotest.test_case "flush_range wide" `Quick test_flush_range_wide;
          prop_tlb_memo_equals_probe;
        ] );
      ( "ept caches",
        [
          Alcotest.test_case "walk-cache invalidation" `Quick
            test_walk_cache_invalidation;
          Alcotest.test_case "covers-memo invalidation" `Quick
            test_covers_memo_invalidation;
          prop_cached_equals_uncached;
          Alcotest.test_case "walk-cache aliasing" `Quick
            test_walk_cache_aliasing;
        ] );
      ( "charge memo",
        [
          Alcotest.test_case "identical charges" `Quick
            test_charge_memo_identical;
          Alcotest.test_case "invalidation on pressure" `Quick
            test_charge_memo_invalidation;
        ] );
      ( "zero-alloc hot path",
        [
          Alcotest.test_case "tlb lookup" `Quick test_tlb_lookup_zero_alloc;
          Alcotest.test_case "tlb lookup, obs on" `Quick
            test_tlb_lookup_zero_alloc_obs_on;
          Alcotest.test_case "ept translate" `Quick
            test_ept_translate_zero_alloc;
          Alcotest.test_case "ept translate, obs on" `Quick
            test_ept_translate_zero_alloc_obs_on;
          Alcotest.test_case "bulk charges" `Quick test_charge_zero_alloc;
          Alcotest.test_case "bulk charges, obs on" `Quick
            test_charge_zero_alloc_obs_on;
          Alcotest.test_case "granular stores, obs off and on" `Quick
            test_store_zero_alloc;
          Alcotest.test_case "guest-mode repeated-page stores, obs off and on"
            `Quick test_guest_store_zero_alloc;
          Alcotest.test_case "exit round trip, obs off" `Quick
            test_exit_roundtrip_zero_alloc;
          Alcotest.test_case "apic raise and ack" `Quick
            test_apic_ack_zero_alloc;
          Alcotest.test_case "fleet shards, domains 1/2/7" `Quick
            test_fleet_sharded_zero_alloc;
          Alcotest.test_case "table create, minor heap only" `Quick
            test_table_create_minor_heap_only;
        ] );
      ( "warm-path regressions",
        [
          Alcotest.test_case "generation stable under reads" `Quick
            test_generation_stable_under_reads;
          Alcotest.test_case "warm <= uncached walk" `Slow
            test_warm_not_slower_than_uncached;
        ] );
    ]
