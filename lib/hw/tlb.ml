type entry = { vpn : int; page_size : Addr.page_size; epoch : int }

(* Set-associative geometry, one bank per size class.  Slots are laid
   out set-major: the slot for way [w] of set [s] is [s * ways + w].
   [stamps] carries the pseudo-LRU epoch (a monotonically increasing
   tick updated on hit and install); eviction picks the stalest way of
   the probed set, so every operation is O(ways) instead of
   O(entries). *)
type bank = {
  sets : int; (* power of two *)
  ways : int;
  slots : entry option array; (* length sets * ways *)
  stamps : int array;
}

type t = {
  b4k : bank;
  b2m : bank;
  b1g : bank;
  mutable epoch : int;
  mutable flushes : int;
  mutable tick : int;
}

let make_bank entries =
  let sets, ways = Cost_model.tlb_geometry ~entries in
  {
    sets;
    ways;
    slots = Array.make (sets * ways) None;
    stamps = Array.make (sets * ways) 0;
  }

let create ~model ~rng:_ =
  (* The RNG parameter is kept for interface stability: eviction used
     to pick a random victim; pseudo-LRU is deterministic and draws
     nothing. *)
  {
    b4k = make_bank Cost_model.(model.dtlb_entries_4k);
    b2m = make_bank Cost_model.(model.dtlb_entries_2m);
    b1g = make_bank Cost_model.(model.dtlb_entries_1g);
    epoch = 0;
    flushes = 0;
    tick = 0;
  }

let bank_for t = function
  | Addr.Page_4k -> t.b4k
  | Addr.Page_2m -> t.b2m
  | Addr.Page_1g -> t.b1g

let geometry t page_size =
  let b = bank_for t page_size in
  (b.sets, b.ways)

let classes = [ Addr.Page_4k; Addr.Page_2m; Addr.Page_1g ]

let touch t b slot = b.stamps.(slot) <- (t.tick <- t.tick + 1; t.tick)

(* Observability cells, interned once: a TLB lookup is the hottest
   operation in the translation path, so the disabled cost must stay at
   the single [!Metrics.on] branch. *)
let m_hit = lazy Covirt_obs.Metrics.(unlabeled (counter "tlb.lookup.hit"))
let m_miss = lazy Covirt_obs.Metrics.(unlabeled (counter "tlb.lookup.miss"))
let m_flush = lazy Covirt_obs.Metrics.(unlabeled (counter "tlb.flush"))

(* warm-begin: allocation-free lookup.  Module-level recursion with
   every binding passed as an argument (no closure capture), hits
   return the [entry option] stored in the slot array itself — the
   warm path allocates no options, closures or tuples, enforced by the
   bench allocation gate and covirt-lint check 6. *)
let rec probe_way (slots : entry option array) vpn base w ways =
  if w >= ways then -1
  else
    match slots.(base + w) with
    | Some e when e.vpn = vpn -> base + w
    | Some _ | None -> probe_way slots vpn base (w + 1) ways

let bank_slot b vpn = probe_way b.slots vpn (vpn land (b.sets - 1) * b.ways) 0 b.ways

let lookup t addr =
  (* First match wins, in the same class order the linear TLB used. *)
  let result =
    let s = bank_slot t.b4k (Addr.pfn addr ~size:Addr.page_size_4k) in
    if s >= 0 then begin
      touch t t.b4k s;
      t.b4k.slots.(s)
    end
    else
      let s = bank_slot t.b2m (Addr.pfn addr ~size:Addr.page_size_2m) in
      if s >= 0 then begin
        touch t t.b2m s;
        t.b2m.slots.(s)
      end
      else
        let s = bank_slot t.b1g (Addr.pfn addr ~size:Addr.page_size_1g) in
        if s >= 0 then begin
          touch t t.b1g s;
          t.b1g.slots.(s)
        end
        else None
  in
  if !Covirt_obs.Metrics.on then
    Covirt_obs.Metrics.add
      (Lazy.force (match result with Some _ -> m_hit | None -> m_miss))
      1;
  result

let lookup_hit t addr =
  match lookup t addr with Some _ -> true | None -> false
(* warm-end *)

let install t addr ~page_size =
  if !Sanitize.on then
    Sanitize.tlb_install addr ~page_size:(Addr.bytes_of_page_size page_size);
  let vpn = Addr.pfn addr ~size:(Addr.bytes_of_page_size page_size) in
  let b = bank_for t page_size in
  let base = vpn land (b.sets - 1) * b.ways in
  let entry = Some { vpn; page_size; epoch = t.epoch } in
  (* One O(ways) probe decides: refresh an existing translation, fill
     a free way, or evict the pseudo-LRU victim. *)
  let victim = ref (-1) in
  let free = ref (-1) in
  let stalest = ref base in
  for w = b.ways - 1 downto 0 do
    let slot = base + w in
    match b.slots.(slot) with
    | Some e -> if e.vpn = vpn then victim := slot
        else if b.stamps.(slot) <= b.stamps.(!stalest) then stalest := slot
    | None -> free := slot
  done;
  let slot =
    if !victim >= 0 then !victim else if !free >= 0 then !free else !stalest
  in
  b.slots.(slot) <- entry;
  touch t b slot

let flush_all t =
  let wipe b = Array.fill b.slots 0 (Array.length b.slots) None in
  wipe t.b4k;
  wipe t.b2m;
  wipe t.b1g;
  t.epoch <- t.epoch + 1;
  t.flushes <- t.flushes + 1;
  if !Covirt_obs.Metrics.on then Covirt_obs.Metrics.add (Lazy.force m_flush) 1

let flush_range t region =
  (* An entry's page [vpn*bytes, (vpn+1)*bytes) overlaps [region] iff
     vpn lies in [base/bytes, (limit-1)/bytes] — integer compares, no
     allocation.  When the region spans fewer pages than there are
     sets, only the sets those pages index can hold a match. *)
  let scrub ps =
    let bytes = Addr.bytes_of_page_size ps in
    let b = bank_for t ps in
    let vpn_lo = region.Region.base / bytes in
    let vpn_hi = (Region.limit region - 1) / bytes in
    let clear_set set =
      let base = set * b.ways in
      for w = 0 to b.ways - 1 do
        match b.slots.(base + w) with
        | Some e when e.vpn >= vpn_lo && e.vpn <= vpn_hi ->
            b.slots.(base + w) <- None
        | Some _ | None -> ()
      done
    in
    if vpn_hi - vpn_lo + 1 >= b.sets then
      for set = 0 to b.sets - 1 do clear_set set done
    else
      for vpn = vpn_lo to vpn_hi do clear_set (vpn land (b.sets - 1)) done
  in
  List.iter scrub classes

let entry_count t =
  let live b =
    Array.fold_left (fun n e -> if Option.is_some e then n + 1 else n) 0 b.slots
  in
  live t.b4k + live t.b2m + live t.b1g

let flush_count t = t.flushes

let bulk_miss_rate ~model ~page_size ~working_set =
  if working_set <= 0 then invalid_arg "Tlb.bulk_miss_rate";
  let reach = Cost_model.tlb_reach model ~page_size in
  Float.max 0.0 (1.0 -. (float_of_int reach /. float_of_int working_set))

let stream_miss_rate ~model ~page_size =
  float_of_int model.Cost_model.line_bytes
  /. float_of_int (Addr.bytes_of_page_size page_size)
