(* Set-associative geometry, one bank per size class.  Slots are laid
   out set-major: the slot for way [w] of set [s] is [s * ways + w].
   [vpns] holds each slot's page number at the bank's page size, or
   [empty]; [stamps] carries the pseudo-LRU epoch (a monotonically
   increasing tick updated on hit and install); eviction picks the
   stalest way of the probed set, so every operation is O(ways)
   instead of O(entries). *)
type bank = {
  sets : int; (* power of two *)
  ways : int;
  vpns : int array; (* length sets * ways *)
  stamps : int array;
}

(* No page number equals it: addresses are non-negative. *)
let empty = -1

(* The last-hit memo: the 4K page number of the last lookup that hit,
   and the bank (0 = 4K, 1 = 2M, 2 = 1G, an int so a fill pays no write
   barrier) and slot it hit in.  Slots change only in [install],
   [flush_all] and [flush_range], and each of them clears the memo, so
   while it is set a probe for that 4K page would find exactly the same
   slot.  Keyed on the 4K page, not the page of the bank that hit: the
   4K bank is probed first, so another 4K page of the same 2M page can
   hit a different entry. *)
type t = {
  b4k : bank;
  b2m : bank;
  b1g : bank;
  mutable flushes : int;
  mutable tick : int;
  mutable memo_vpn : int; (* [no_memo] when clear *)
  mutable memo_bank : int;
  mutable memo_slot : int;
}

(* No 4K page number equals it: [Addr.pfn] divides by 4096. *)
let no_memo = min_int

let make_bank entries =
  let sets, ways = Cost_model.tlb_geometry ~entries in
  {
    sets;
    ways;
    vpns = Array.make (sets * ways) empty;
    stamps = Array.make (sets * ways) 0;
  }

let create ~model =
  {
    b4k = make_bank Cost_model.(model.dtlb_entries_4k);
    b2m = make_bank Cost_model.(model.dtlb_entries_2m);
    b1g = make_bank Cost_model.(model.dtlb_entries_1g);
    flushes = 0;
    tick = 0;
    memo_vpn = no_memo;
    memo_bank = 0;
    memo_slot = 0;
  }

let clear_memo t = t.memo_vpn <- no_memo

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
   every binding passed as an argument (no closure capture), the
   answer is an int, and a repeat of the last hit page skips the
   probes through the memo's int fields — the warm path allocates no
   options, closures or tuples, enforced by the bench allocation gate
   and covirt-lint check 6. *)
let rec probe_way (vpns : int array) vpn base w ways =
  if w >= ways then -1
  else if vpns.(base + w) = vpn then base + w
  else probe_way vpns vpn base (w + 1) ways

let bank_slot b vpn = probe_way b.vpns vpn (vpn land (b.sets - 1) * b.ways) 0 b.ways

let bank_of_code t = function 0 -> t.b4k | 1 -> t.b2m | _ -> t.b1g

let hit t vpn code b s =
  touch t b s;
  t.memo_vpn <- vpn;
  t.memo_bank <- code;
  t.memo_slot <- s;
  code

let lookup t addr =
  let vpn = Addr.pfn addr ~size:Addr.page_size_4k in
  let code =
    if vpn = t.memo_vpn then begin
      touch t (bank_of_code t t.memo_bank) t.memo_slot;
      t.memo_bank
    end
    else
      (* First match wins, in the same class order the linear TLB used. *)
      let s = bank_slot t.b4k vpn in
      if s >= 0 then hit t vpn 0 t.b4k s
      else
        let s = bank_slot t.b2m (Addr.pfn addr ~size:Addr.page_size_2m) in
        if s >= 0 then hit t vpn 1 t.b2m s
        else
          let s = bank_slot t.b1g (Addr.pfn addr ~size:Addr.page_size_1g) in
          if s >= 0 then hit t vpn 2 t.b1g s else -1
  in
  if !Covirt_obs.Metrics.on then
    Covirt_obs.Metrics.add (Lazy.force (if code >= 0 then m_hit else m_miss)) 1;
  code
(* warm-end *)

let install t addr ~page_size =
  if !Sanitize.on then
    Sanitize.tlb_install addr ~page_size:(Addr.bytes_of_page_size page_size);
  let vpn = Addr.pfn addr ~size:(Addr.bytes_of_page_size page_size) in
  let b = bank_for t page_size in
  let base = vpn land (b.sets - 1) * b.ways in
  (* One O(ways) probe decides: refresh an existing translation, fill
     a free way, or evict the pseudo-LRU victim. *)
  let victim = ref (-1) in
  let free = ref (-1) in
  let stalest = ref base in
  for w = b.ways - 1 downto 0 do
    let slot = base + w in
    let v = b.vpns.(slot) in
    if v = empty then free := slot
    else if v = vpn then victim := slot
    else if b.stamps.(slot) <= b.stamps.(!stalest) then stalest := slot
  done;
  let slot =
    if !victim >= 0 then !victim else if !free >= 0 then !free else !stalest
  in
  b.vpns.(slot) <- vpn;
  touch t b slot;
  clear_memo t

let flush_all t =
  let wipe b = Array.fill b.vpns 0 (Array.length b.vpns) empty in
  wipe t.b4k;
  wipe t.b2m;
  wipe t.b1g;
  clear_memo t;
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
        let v = b.vpns.(base + w) in
        if v >= vpn_lo && v <= vpn_hi then b.vpns.(base + w) <- empty
      done
    in
    if vpn_hi - vpn_lo + 1 >= b.sets then
      for set = 0 to b.sets - 1 do clear_set set done
    else
      for vpn = vpn_lo to vpn_hi do clear_set (vpn land (b.sets - 1)) done
  in
  List.iter scrub classes;
  clear_memo t

let entry_count t =
  let live b =
    Array.fold_left (fun n v -> if v = empty then n else n + 1) 0 b.vpns
  in
  live t.b4k + live t.b2m + live t.b1g

let flush_count t = t.flushes
let tick t = t.tick

let bulk_miss_rate ~model ~page_size ~working_set =
  if working_set <= 0 then invalid_arg "Tlb.bulk_miss_rate";
  let reach = Cost_model.tlb_reach model ~page_size in
  Float.max 0.0 (1.0 -. (float_of_int reach /. float_of_int working_set))

let stream_miss_rate ~model ~page_size =
  float_of_int model.Cost_model.line_bytes
  /. float_of_int (Addr.bytes_of_page_size page_size)
