type t = {
  ghz : float;
  l1_size : int;
  l2_size : int;
  l3_size : int;
  l1_hit : int;
  l2_hit : int;
  l3_hit : int;
  dram_local : int;
  dram_remote : int;
  line_bytes : int;
  stream_line_local : int;
  stream_line_remote : int;
  bw_channels_per_zone : int;
  flop_cycles : float;
  dtlb_entries_4k : int;
  dtlb_entries_2m : int;
  dtlb_entries_1g : int;
  stlb_entries_4k : int;
  pt_walk_native : int;
  ept_walk_extra_4k : int;
  ept_walk_extra_2m : int;
  ept_walk_extra_1g : int;
  guest_tlbmiss_tax : int;
  vapic_tlbmiss_tax : int;
  vmexit_roundtrip : int;
  exit_dispatch : int;
  vmcs_load : int;
  vmlaunch : int;
  ipi_send_native : int;
  ipi_recv_native : int;
  icr_whitelist_check : int;
  piv_post : int;
  vapic_inject : int;
  nmi_roundtrip : int;
  timer_handler : int;
  ept_entry_update : int;
  ctrl_channel_msg : int;
  page_list_per_page : int;
}

let default =
  {
    ghz = 1.7;
    l1_size = 32 * 1024;
    l2_size = 256 * 1024;
    l3_size = 15 * 1024 * 1024;
    l1_hit = 4;
    l2_hit = 12;
    l3_hit = 42;
    dram_local = 190;
    dram_remote = 310;
    line_bytes = 64;
    stream_line_local = 12;
    stream_line_remote = 20;
    bw_channels_per_zone = 2;
    flop_cycles = 0.5;
    dtlb_entries_4k = 64;
    dtlb_entries_2m = 32;
    dtlb_entries_1g = 4;
    stlb_entries_4k = 1536;
    pt_walk_native = 30;
    ept_walk_extra_4k = 24;
    ept_walk_extra_2m = 4;
    ept_walk_extra_1g = 2;
    guest_tlbmiss_tax = 1;
    vapic_tlbmiss_tax = 4;
    vmexit_roundtrip = 1300;
    exit_dispatch = 250;
    vmcs_load = 900;
    vmlaunch = 1100;
    ipi_send_native = 500;
    ipi_recv_native = 650;
    icr_whitelist_check = 90;
    piv_post = 150;
    vapic_inject = 800;
    nmi_roundtrip = 1500;
    timer_handler = 1800;
    ept_entry_update = 12;
    ctrl_channel_msg = 1200;
    page_list_per_page = 35;
  }

(* Set-associative geometry for a TLB bank of [entries] slots:
   Broadwell-style 4-way banks, sets rounded down to a power of two so
   the index is a mask.  Tiny banks (the 1G class) degenerate to one
   fully-associative set. *)
let tlb_geometry ~entries =
  if entries <= 0 then invalid_arg "Cost_model.tlb_geometry";
  let ways = min 4 entries in
  let target = max 1 (entries / ways) in
  let rec pow2_floor p = if p * 2 <= target then pow2_floor (p * 2) else p in
  (pow2_floor 1, ways)

let stream_line t ~local = if local then t.stream_line_local else t.stream_line_remote

let tlb_reach t ~page_size =
  match (page_size : Addr.page_size) with
  | Page_4k -> (t.dtlb_entries_4k + t.stlb_entries_4k) * Addr.page_size_4k
  | Page_2m -> t.dtlb_entries_2m * Addr.page_size_2m
  | Page_1g -> t.dtlb_entries_1g * Addr.page_size_1g

let ept_walk_extra t = function
  | Addr.Page_4k -> t.ept_walk_extra_4k
  | Addr.Page_2m -> t.ept_walk_extra_2m
  | Addr.Page_1g -> t.ept_walk_extra_1g

let random_profile t ~working_set ~sharers =
  assert (working_set > 0 && sharers > 0);
  let ws = float_of_int working_set in
  let effective_l3 = float_of_int t.l3_size /. float_of_int sharers in
  let level_hit size = Float.min 1.0 (size /. ws) in
  let p1 = level_hit (float_of_int t.l1_size) in
  let p2 = Float.max 0.0 (level_hit (float_of_int t.l2_size) -. p1) in
  let p3 = Float.max 0.0 (level_hit effective_l3 -. p1 -. p2) in
  let pm = Float.max 0.0 (1.0 -. p1 -. p2 -. p3) in
  let cycles =
    (p1 *. float_of_int t.l1_hit)
    +. (p2 *. float_of_int t.l2_hit)
    +. (p3 *. float_of_int t.l3_hit)
    +. (pm *. float_of_int t.dram_local)
  in
  (cycles, pm)

let expected_random_cycles t ~working_set ~sharers =
  fst (random_profile t ~working_set ~sharers)
