module By_base = Map.Make (Int)

type assignment = {
  region : Region.t;
  owner : Owner.t;
  seq : int;  (* newest assignment highest: the order [snapshot] keeps *)
  mutable slot : int;  (* its index in [slots]; -1 once gone *)
}

type t = {
  uid : int;
  topology : Numa.t;
  (* The assignments (disjoint) twice over: by base address, so a
     release or chown finds what it overlaps in O(log n + overlaps),
     and packed in [slots.(0 .. count - 1)] (unordered) for the
     ownership scans. *)
  mutable by_base : assignment By_base.t;
  mutable slots : assignment array;
  mutable count : int;
  mutable next_seq : int;
  (* The assignment that answered the last lookup, tried first by the
     next one; stale once its [slot] is -1. *)
  mutable hint : assignment;
  mutable free : Region.Set.t;
  mutable next_mmio : Addr.t;
  mmio_base : Addr.t;
  devices : (string, Region.t) Hashtbl.t;
}

(* Stands for "no assignment": never in [slots]. *)
let none =
  { region = Region.make ~base:0 ~len:1; owner = Owner.Free; seq = -1; slot = -1 }

let insert t region owner =
  if t.count = Array.length t.slots then begin
    let bigger = Array.make (2 * t.count) none in
    Array.blit t.slots 0 bigger 0 t.count;
    t.slots <- bigger
  end;
  let a = { region; owner; seq = t.next_seq; slot = t.count } in
  t.next_seq <- t.next_seq + 1;
  t.slots.(t.count) <- a;
  t.count <- t.count + 1;
  t.by_base <- By_base.add region.Region.base a t.by_base

let delete t a =
  let last = t.slots.(t.count - 1) in
  t.slots.(a.slot) <- last;
  last.slot <- a.slot;
  t.count <- t.count - 1;
  t.slots.(t.count) <- none;
  a.slot <- -1;
  t.by_base <- By_base.remove a.region.Region.base t.by_base

(* The assignments overlapping [r], newest first (the order the
   remnants of a cut are re-added in). *)
let overlapping t r =
  let limit = Region.limit r in
  let from_below =
    match By_base.find_last_opt (fun b -> b < r.Region.base) t.by_base with
    | Some (_, a) when Region.overlaps a.region r -> [ a ]
    | _ -> []
  in
  By_base.to_seq_from r.Region.base t.by_base
  |> Seq.take_while (fun (b, _) -> b < limit)
  |> Seq.fold_left (fun acc (_, a) -> a :: acc) from_below
  |> List.sort (fun a b -> Int.compare b.seq a.seq)

(* Atomic: machines are created concurrently by fleet shards, and the
   uid gates the per-domain shadow-sanitizer hooks. *)
let uid_counter = Atomic.make 0

let create ~topology ~host_reserved_per_zone =
  let uid = 1 + Atomic.fetch_and_add uid_counter 1 in
  let total = Numa.total_mem topology in
  let t =
    {
      uid;
      topology;
      by_base = By_base.empty;
      slots = Array.make 16 none;
      count = 0;
      next_seq = 0;
      hint = none;
      free = Region.Set.of_list [ Region.make ~base:0 ~len:total ];
      next_mmio = total;
      mmio_base = total;
      devices = Hashtbl.create 4;
    }
  in
  for z = 0 to Numa.zones topology - 1 do
    let zr = Numa.zone_range topology z in
    let host = Region.make ~base:zr.Region.base ~len:host_reserved_per_zone in
    t.free <- Region.Set.remove t.free host;
    insert t host Owner.Host
  done;
  t

let topology t = t.topology
let uid t = t.uid

let snapshot t =
  Array.sub t.slots 0 t.count
  |> Array.to_list
  |> List.sort (fun a b -> Int.compare b.seq a.seq)
  |> List.map (fun a -> (a.region, a.owner))

(* Mirror an ownership change into the shadow sanitizer; one branch,
   nothing else, when the mode is off. *)
let sanitize_event t region owner =
  if !Sanitize.on then Sanitize.phys_event ~mem_uid:t.uid region owner

let align = Addr.page_size_2m

let alloc t ~owner ~zone ~len =
  if len <= 0 then invalid_arg "Phys_mem.alloc";
  let len = Addr.page_up len ~size:Addr.page_size_4k in
  let zr = Numa.zone_range t.topology zone in
  let candidate =
    Region.Set.to_list (Region.Set.inter t.free (Region.Set.of_list [ zr ]))
    |> List.find_map (fun r ->
           let base = Addr.page_up r.Region.base ~size:align in
           if base + len <= Region.limit r then
             Some (Region.make ~base ~len)
           else None)
  in
  match candidate with
  | None ->
      Error
        (Format.asprintf "no contiguous %a block free in zone %d"
           Covirt_sim.Units.pp_bytes len zone)
  | Some region ->
      t.free <- Region.Set.remove t.free region;
      insert t region owner;
      sanitize_event t region owner;
      Ok region

let assign t ~owner region =
  if Region.Set.mem_range t.free ~base:region.Region.base ~len:region.Region.len
  then begin
    t.free <- Region.Set.remove t.free region;
    insert t region owner;
    sanitize_event t region owner;
    Ok ()
  end
  else Error "Phys_mem.assign: region not entirely free"

(* Cut [region] out of every assignment it overlaps; returns the
   remnants of partly covered assignments (each keeps its owner),
   newest first: the cut order, each assignment's remnants ascending. *)
let cut t region =
  let hit = overlapping t region in
  List.iter (delete t) hit;
  List.concat_map
    (fun a ->
      Region.Set.to_list (Region.Set.remove (Region.Set.of_list [ a.region ]) region)
      |> List.map (fun r -> (r, a.owner)))
    hit

(* Add assignments given newest first, so the first ends up newest. *)
let add_newest_first t l = List.iter (fun (r, o) -> insert t r o) (List.rev l)

let release t region =
  add_newest_first t (cut t region);
  t.free <- Region.Set.add t.free region;
  sanitize_event t region Owner.Free

let unmapped_mmio = Owner.Device "unmapped-mmio"

(* warm-begin: every granular load and store asks who owns its address,
   and consecutive accesses mostly land in the assignment the last one
   found.  The answer is an assignment already in [slots] ([none] when
   no assignment holds [addr]), so nothing is allocated.  Assignments
   are disjoint, so the hint, when it holds [addr], is the assignment
   the scan would find. *)
let rec scan slots count addr i =
  if i = count then none
  else
    let a = Array.unsafe_get slots i in
    if Region.contains a.region addr then a else scan slots count addr (i + 1)

let holding t addr =
  let h = t.hint in
  if h.slot >= 0 && Region.contains h.region addr then h
  else begin
    let a = scan t.slots t.count addr 0 in
    if a.slot >= 0 then t.hint <- a;
    a
  end

let owner_at t addr =
  let a = holding t addr in
  if a.slot >= 0 then a.owner
  else if addr >= t.mmio_base then unmapped_mmio
  else Owner.Free
(* warm-end *)

(* The number of 4K page starts [base + k * 4K] (k >= 0, below [limit])
   that fall inside [\[lo, hi)]. *)
let page_starts ~base ~limit lo hi =
  let lo = Int.max lo base and hi = Int.min hi limit in
  if hi <= lo then 0
  else
    let pages d = (d + Addr.page_size_4k - 1) / Addr.page_size_4k in
    pages (hi - base) - pages (lo - base)

(* Assignments are disjoint, so summing the page starts each one of
   [owner]'s covers, plus (for the owners [owner_at] reports on a miss)
   the uncovered page starts of the span where a miss answers [owner],
   counts every page start whose [owner_at] is [owner] exactly once. *)
let rec owned_starts t owner ~base ~limit ~miss_lo ~miss_hi acc i =
  if i = t.count then acc
  else
    let a = t.slots.(i) in
    let lo = a.region.Region.base and hi = Region.limit a.region in
    let acc =
      if Owner.equal a.owner owner then acc + page_starts ~base ~limit lo hi
      else acc
    in
    let acc =
      if lo < miss_hi && miss_lo < hi then
        acc - page_starts ~base ~limit (Int.max lo miss_lo) (Int.min hi miss_hi)
      else acc
    in
    owned_starts t owner ~base ~limit ~miss_lo ~miss_hi acc (i + 1)

let owns t owner r =
  let base = r.Region.base and limit = Region.limit r in
  (* Two matches, not a tuple: the query allocates nothing. *)
  let miss_lo =
    match owner with Owner.Device "unmapped-mmio" -> t.mmio_base | _ -> 0
  in
  let miss_hi =
    match owner with
    | Owner.Free -> t.mmio_base
    | Owner.Device "unmapped-mmio" -> max_int
    | _ -> 0
  in
  owned_starts t owner ~base ~limit ~miss_lo ~miss_hi
    (page_starts ~base ~limit miss_lo miss_hi)
    0
  = page_starts ~base ~limit base limit

let free_bytes t ~zone =
  let zr = Numa.zone_range t.topology zone in
  Region.Set.total_bytes
    (Region.Set.inter t.free (Region.Set.of_list [ zr ]))

let add_device t ~name ~len =
  if Hashtbl.mem t.devices name then invalid_arg "Phys_mem.add_device: duplicate";
  let len = Addr.page_up len ~size:Addr.page_size_4k in
  let region = Region.make ~base:t.next_mmio ~len in
  t.next_mmio <- t.next_mmio + len;
  insert t region (Owner.Device name);
  Hashtbl.replace t.devices name region;
  sanitize_event t region (Owner.Device name);
  region

let find_device t ~name = Hashtbl.find_opt t.devices name

let chown t region owner =
  add_newest_first t ((region, owner) :: cut t region);
  t.free <- Region.Set.remove t.free region;
  sanitize_event t region owner

let mmio_base t = t.mmio_base

let pp ppf t =
  By_base.iter
    (fun _ a ->
      Format.fprintf ppf "%a %a@." Region.pp a.region Owner.pp a.owner)
    t.by_base;
  Format.fprintf ppf "free: %a" Covirt_sim.Units.pp_bytes
    (Region.Set.total_bytes t.free)
