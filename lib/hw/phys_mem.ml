type assignment = { region : Region.t; owner : Owner.t }

type t = {
  uid : int;
  topology : Numa.t;
  mutable assignments : assignment list; (* disjoint, unsorted *)
  (* The cell of [hint_for] that answered the last lookup, tried first
     by the next one.  Valid only while [hint_for] is still
     [assignments]: every change replaces the list. *)
  mutable hint : assignment list;
  mutable hint_for : assignment list;
  mutable free : Region.Set.t;
  mutable next_mmio : Addr.t;
  mmio_base : Addr.t;
  devices : (string, Region.t) Hashtbl.t;
}

(* Atomic: machines are created concurrently by fleet shards, and the
   uid gates the per-domain shadow-sanitizer hooks. *)
let uid_counter = Atomic.make 0

let create ~topology ~host_reserved_per_zone =
  let uid = 1 + Atomic.fetch_and_add uid_counter 1 in
  let total = Numa.total_mem topology in
  let free = ref (Region.Set.of_list [ Region.make ~base:0 ~len:total ]) in
  let assignments = ref [] in
  for z = 0 to Numa.zones topology - 1 do
    let zr = Numa.zone_range topology z in
    let host = Region.make ~base:zr.Region.base ~len:host_reserved_per_zone in
    free := Region.Set.remove !free host;
    assignments := { region = host; owner = Owner.Host } :: !assignments
  done;
  {
    uid;
    topology;
    assignments = !assignments;
    hint = [];
    hint_for = [];
    free = !free;
    next_mmio = total;
    mmio_base = total;
    devices = Hashtbl.create 4;
  }

let topology t = t.topology
let uid t = t.uid

let snapshot t =
  List.map (fun a -> (a.region, a.owner)) t.assignments

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
      t.assignments <- { region; owner } :: t.assignments;
      sanitize_event t region owner;
      Ok region

let assign t ~owner region =
  if Region.Set.mem_range t.free ~base:region.Region.base ~len:region.Region.len
  then begin
    t.free <- Region.Set.remove t.free region;
    t.assignments <- { region; owner } :: t.assignments;
    sanitize_event t region owner;
    Ok ()
  end
  else Error "Phys_mem.assign: region not entirely free"

let release t region =
  let keep, cut =
    List.partition
      (fun a -> not (Region.overlaps a.region region))
      t.assignments
  in
  (* Partial releases shrink the assignment. *)
  let remnants =
    List.concat_map
      (fun a ->
        Region.Set.to_list
          (Region.Set.remove (Region.Set.of_list [ a.region ]) region)
        |> List.map (fun r -> { region = r; owner = a.owner }))
      cut
  in
  t.assignments <- remnants @ keep;
  t.free <- Region.Set.add t.free region;
  sanitize_event t region Owner.Free

let unmapped_mmio = Owner.Device "unmapped-mmio"

(* warm-begin: every granular load and store asks who owns its address,
   and consecutive accesses mostly land in the assignment the last one
   found.  The answer is the list cell holding [addr] ([] when none
   does): a cell already in the list, so nothing is allocated.
   Assignments are disjoint, so the hint, when it holds [addr], is the
   cell the scan would find. *)
let rec scan addr = function
  | [] -> []
  | a :: rest as cell ->
      if Region.contains a.region addr then cell else scan addr rest

let holding t addr =
  match t.hint with
  | a :: _ when t.hint_for == t.assignments && Region.contains a.region addr ->
      t.hint
  | _ ->
      let cell = scan addr t.assignments in
      if cell != [] then begin
        t.hint <- cell;
        t.hint_for <- t.assignments
      end;
      cell

let owner_at t addr =
  match holding t addr with
  | a :: _ -> a.owner
  | [] -> if addr >= t.mmio_base then unmapped_mmio else Owner.Free
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
let rec owned_starts owner ~base ~limit ~miss_lo ~miss_hi acc = function
  | [] -> acc
  | a :: rest ->
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
      owned_starts owner ~base ~limit ~miss_lo ~miss_hi acc rest

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
  owned_starts owner ~base ~limit ~miss_lo ~miss_hi
    (page_starts ~base ~limit miss_lo miss_hi)
    t.assignments
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
  t.assignments <- { region; owner = Owner.Device name } :: t.assignments;
  Hashtbl.replace t.devices name region;
  sanitize_event t region (Owner.Device name);
  region

let find_device t ~name = Hashtbl.find_opt t.devices name

let chown t region owner =
  let keep, cut =
    List.partition (fun a -> not (Region.overlaps a.region region)) t.assignments
  in
  let remnants =
    List.concat_map
      (fun a ->
        Region.Set.to_list
          (Region.Set.remove (Region.Set.of_list [ a.region ]) region)
        |> List.map (fun r -> { region = r; owner = a.owner }))
      cut
  in
  t.free <- Region.Set.remove t.free region;
  t.assignments <- ({ region; owner } :: remnants) @ keep;
  sanitize_event t region owner

let mmio_base t = t.mmio_base

let pp ppf t =
  let sorted =
    List.sort (fun a b -> Region.compare a.region b.region) t.assignments
  in
  List.iter
    (fun a ->
      Format.fprintf ppf "%a %a@." Region.pp a.region Owner.pp a.owner)
    sorted;
  Format.fprintf ppf "free: %a" Covirt_sim.Units.pp_bytes
    (Region.Set.total_bytes t.free)
