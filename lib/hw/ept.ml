type perms = { read : bool; write : bool; exec : bool }

let rwx = { read = true; write = true; exec = true }
let ro = { read = true; write = false; exec = true }

type violation = {
  gpa : Addr.t;
  access : [ `Read | `Write | `Exec ];
  reason : [ `Not_mapped | `Perm_denied ];
}

(* The radix is indexed by 9-bit slices of the guest-physical address:
   level 4 = PML4 (512G per entry), 3 = PDPT (1G), 2 = PD (2M),
   1 = PT (4K).  Leaves may sit at levels 3 (1G), 2 (2M) and 1 (4K). *)

type node = { entries : (int, entry) Hashtbl.t }
and entry = Table of node | Leaf of { page_size : Addr.page_size; perms : perms }

(* Paging-structure walk cache: what the hardware's PDE/PDPTE caches
   buy a real walker.  Direct-mapped by the 2M-aligned window of the
   GPA; a window resolves either uniformly (a >=2M leaf, or nothing
   mapped at that level) or through its level-1 PT node, in which case
   the per-4K answers are themselves resolved lazily into a 512-slot
   array — a warm lookup is two array reads and an int compare, no
   hashing.  The cache carries the [writes] counter it was filled
   under and self-invalidates wholesale when any leaf is installed or
   removed.

   Layout: two flat arrays, [wkeys] (ints) and [wentries] (initially
   one shared [Uniform None]).  256 slots keep each array within
   [Max_young_wosize], so both are minor-heap blocks: creating an EPT
   (two per enclave launch) allocates no major-heap block and forces
   no minor collection. *)
type walk_entry =
  | Uniform of (Addr.page_size * perms) option
  | Pt of {
      node : node;
      slots : (Addr.page_size * perms) option option array;
          (* outer option: slot not resolved yet; inner: the walk's
             answer for that 4K page, including "unmapped" *)
    }

type walk_cache = { wkeys : int array; wentries : walk_entry array }

let walk_cache_slots = 256

type t = {
  uid : int;
  root : node;
  max_page : Addr.page_size;
  mutable index : Region.Set.t;
  mutable writes : int;
  mutable n4k : int;
  mutable n2m : int;
  mutable n1g : int;
  walk_cache : walk_cache option;
  mutable walk_cache_gen : int;
  mutable walk_hits : int;
  mutable walk_misses : int;
  covers_cache : (int * int, bool) Hashtbl.t;
  mutable covers_cache_gen : int;
}

(* Atomic: EPTs are created concurrently by fleet shards, and the uid
   keys per-domain sanitizer/memo tables — a duplicated uid would
   alias two machines' state. *)
let next_uid = Atomic.make 0

let create ?(max_page = Addr.Page_1g) ?(walk_cache = true) () =
  {
    uid = 1 + Atomic.fetch_and_add next_uid 1;
    root = { entries = Hashtbl.create 16 };
    max_page;
    index = Region.Set.empty;
    writes = 0;
    n4k = 0;
    n2m = 0;
    n1g = 0;
    walk_cache =
      (if walk_cache then
         Some
           {
             wkeys = Array.make walk_cache_slots (-1);
             wentries = Array.make walk_cache_slots (Uniform None);
           }
       else None);
    walk_cache_gen = 0;
    walk_hits = 0;
    walk_misses = 0;
    covers_cache = Hashtbl.create 32;
    covers_cache_gen = 0;
  }

let max_page t = t.max_page
let uid t = t.uid
let generation t = t.writes
let walk_cache_stats t = (t.walk_hits, t.walk_misses)

let level_shift = function 4 -> 39 | 3 -> 30 | 2 -> 21 | 1 -> 12 | _ -> assert false
let slice addr level = (addr lsr level_shift level) land 0x1ff

let page_size_of_level = function
  | 3 -> Addr.Page_1g
  | 2 -> Addr.Page_2m
  | 1 -> Addr.Page_4k
  | _ -> assert false

let level_of_page_size = function
  | Addr.Page_1g -> 3
  | Addr.Page_2m -> 2
  | Addr.Page_4k -> 1

let count_delta t page_size d =
  match page_size with
  | Addr.Page_4k -> t.n4k <- t.n4k + d
  | Addr.Page_2m -> t.n2m <- t.n2m + d
  | Addr.Page_1g -> t.n1g <- t.n1g + d

(* Install a leaf of [page_size] covering [addr] (which must be
   aligned).  Any leaf already present at exactly that slot is
   replaced; the caller is responsible for never asking to overwrite a
   Table with a Leaf (map_region splits work so that cannot happen for
   well-formed inputs). *)
let install_leaf t addr ~page_size ~perms =
  let target_level = level_of_page_size page_size in
  let rec descend node level =
    if level = target_level then begin
      let idx = slice addr level in
      (match Hashtbl.find_opt node.entries idx with
      | Some (Leaf l) -> count_delta t l.page_size (-1)
      | Some (Table _) ->
          (* Mapping a large page over an existing finer table: drop
             the subtree.  Count removal of its leaves. *)
          let rec drop n =
            Hashtbl.iter
              (fun _ e ->
                match e with
                | Leaf l -> count_delta t l.page_size (-1)
                | Table n' -> drop n')
              n.entries
          in
          (match Hashtbl.find_opt node.entries idx with
          | Some (Table n) -> drop n
          | Some (Leaf _) | None -> ())
      | None -> ());
      Hashtbl.replace node.entries idx (Leaf { page_size; perms });
      count_delta t page_size 1;
      t.writes <- t.writes + 1
    end
    else
      let idx = slice addr level in
      let child =
        match Hashtbl.find_opt node.entries idx with
        | Some (Table n) -> n
        | Some (Leaf _) ->
            (* A larger leaf covers this range already; splitting is
               handled by unmap/split paths, and map_region only emits
               aligned chunks, so reaching here means the caller remaps
               inside an existing large page.  Split it. *)
            assert false
        | None ->
            let n = { entries = Hashtbl.create 16 } in
            Hashtbl.replace node.entries idx (Table n);
            n
      in
      descend child (level - 1)
  in
  descend t.root 4

(* Bulk-fill one whole 2M window with 512 identity 4K leaves.  The
   dense path map_region takes when coalescing is capped below 2M;
   equivalent to 512 install_leaf calls into an empty window (counts
   and [writes] advance identically) without re-descending from the
   root per page or growing a 16-bucket table 512 times. *)
let install_pt_window t addr ~perms =
  let rec descend node level =
    if level = 2 then begin
      let idx = slice addr 2 in
      let child =
        match Hashtbl.find_opt node.entries idx with
        | Some (Table n) -> n
        | Some (Leaf _) -> assert false (* map_region cleared overlaps *)
        | None ->
            let n = { entries = Hashtbl.create 512 } in
            Hashtbl.replace node.entries idx (Table n);
            n
      in
      for i = 0 to 511 do
        (match Hashtbl.find_opt child.entries i with
        | Some (Leaf l) -> count_delta t l.page_size (-1)
        | Some (Table _) -> assert false
        | None -> ());
        Hashtbl.replace child.entries i (Leaf { page_size = Addr.Page_4k; perms })
      done;
      count_delta t Addr.Page_4k 512;
      t.writes <- t.writes + 512
    end
    else
      let idx = slice addr level in
      let child =
        match Hashtbl.find_opt node.entries idx with
        | Some (Table n) -> n
        | Some (Leaf _) -> assert false
        | None ->
            let n = { entries = Hashtbl.create 16 } in
            Hashtbl.replace node.entries idx (Table n);
            n
      in
      descend child (level - 1)
  in
  descend t.root 4

(* Split the leaf at slot [idx] of [node] (a level-[level] leaf) into
   512 identity children one level down, preserving permissions. *)
let split_leaf t node idx level ~perms =
  let child = { entries = Hashtbl.create 512 } in
  let child_ps = page_size_of_level (level - 1) in
  for i = 0 to 511 do
    Hashtbl.replace child.entries i (Leaf { page_size = child_ps; perms })
  done;
  count_delta t (page_size_of_level level) (-1);
  count_delta t child_ps 512;
  t.writes <- t.writes + 512;
  Hashtbl.replace node.entries idx (Table child)

let find_leaf_uncached t addr =
  let rec descend node level =
    if level = 0 then None
    else
      match Hashtbl.find_opt node.entries (slice addr level) with
      | None -> None
      | Some (Leaf { page_size; perms }) -> Some (page_size, perms)
      | Some (Table n) -> descend n (level - 1)
  in
  descend t.root 4

let pt_lookup node addr =
  match Hashtbl.find_opt node.entries (slice addr 1) with
  | Some (Leaf { page_size; perms }) -> Some (page_size, perms)
  | Some (Table _) -> assert false (* level 0 cannot be a table *)
  | None -> None

(* Walk once, remembering how the 2M window resolves. *)
let fill_walk_entry t addr =
  let rec descend node level =
    if level = 2 then
      match Hashtbl.find_opt node.entries (slice addr 2) with
      | None -> Uniform None
      | Some (Leaf { page_size; perms }) -> Uniform (Some (page_size, perms))
      | Some (Table n) -> Pt { node = n; slots = Array.make 512 None }
    else
      match Hashtbl.find_opt node.entries (slice addr level) with
      | None -> Uniform None
      | Some (Leaf { page_size; perms }) -> Uniform (Some (page_size, perms))
      | Some (Table n) -> descend n (level - 1)
  in
  descend t.root 4

(* Observability cells for the walk-cache hit/miss path and for
   translation violations; interned once, guarded by one branch. *)
let m_walk_hit = lazy Covirt_obs.Metrics.(unlabeled (counter "ept.walk.hit"))
let m_walk_miss = lazy Covirt_obs.Metrics.(unlabeled (counter "ept.walk.miss"))

let m_violation =
  lazy (Covirt_obs.Metrics.counter "ept.violation" ~max_series:8)

(* Probe point: the walk-branch class taken — 0 walk-cache hit,
   1 walk-cache fill, 2 uncached walk, 3 PT-slot hit, 4 PT-slot fill,
   5 violation/not-mapped, 6 violation/perm-denied. *)
let walk : (int, unit) Covirt_obs.Probe.point = Covirt_obs.Probe.point ()

(* warm-begin: allocation-free walk.  A warm [find_leaf] is two array
   reads and an int compare; the per-4K slot answers are the stored
   [(page_size * perms) option] values themselves, so nothing on the
   hit path allocates (enforced by the bench allocation gate and
   covirt-lint check 6).  The wholesale invalidation is an
   [Array.fill] of the key array — no closure on a post-write
   translate. *)
let find_leaf t addr =
  match t.walk_cache with
  | None ->
      if !Covirt_obs.Probe.on then Covirt_obs.Probe.fire walk 2 ();
      find_leaf_uncached t addr
  | Some { wkeys; wentries } ->
      if t.walk_cache_gen <> t.writes then begin
        Array.fill wkeys 0 walk_cache_slots (-1);
        t.walk_cache_gen <- t.writes
      end;
      let key = addr lsr 21 in
      let s = key land (walk_cache_slots - 1) in
      if wkeys.(s) = key then begin
        t.walk_hits <- t.walk_hits + 1;
        if !Covirt_obs.Probe.on then Covirt_obs.Probe.fire walk 0 ();
        if !Covirt_obs.Metrics.on then
          Covirt_obs.Metrics.add (Lazy.force m_walk_hit) 1
      end
      else begin
        t.walk_misses <- t.walk_misses + 1;
        if !Covirt_obs.Probe.on then Covirt_obs.Probe.fire walk 1 ();
        if !Covirt_obs.Metrics.on then
          Covirt_obs.Metrics.add (Lazy.force m_walk_miss) 1;
        wentries.(s) <- fill_walk_entry t addr;
        wkeys.(s) <- key
      end;
      (match wentries.(s) with
      | Uniform r -> r
      | Pt { node; slots } -> (
          let i = slice addr 1 in
          match slots.(i) with
          | Some r ->
              if !Covirt_obs.Probe.on then Covirt_obs.Probe.fire walk 3 ();
              r
          | None ->
              if !Covirt_obs.Probe.on then Covirt_obs.Probe.fire walk 4 ();
              let r = pt_lookup node addr in
              (* lint: allow warm-alloc — pt-slot cold fill: the boxed
                 answer is stored and handed back unwrapped on later
                 hits, so the [Some] is paid once per slot, not per
                 translate. *)
              slots.(i) <- Some r;
              r))

let note_violation reason =
  if !Covirt_obs.Probe.on then
    Covirt_obs.Probe.fire walk
      (match reason with `Not_mapped -> 5 | `Perm_denied -> 6)
      ();
  if !Covirt_obs.Metrics.on then
    let dim =
      match reason with `Not_mapped -> "not-mapped" | `Perm_denied -> "perm"
    in
    Covirt_obs.Metrics.add
      (Covirt_obs.Metrics.cell (Lazy.force m_violation)
         { Covirt_obs.Metrics.no_label with dim })
      1

(* Unboxed-result translation: non-negative [Addr.page_size_code] on
   success, [not_mapped_code]/[perm_denied_code] on failure.  The hot
   callers (Machine.translate_granular, the warm benches) branch on
   the code and build a [violation] record only on the cold exit
   path. *)
let not_mapped_code = -1
let perm_denied_code = -2

let translate_code t addr ~access =
  match find_leaf t addr with
  | None ->
      note_violation `Not_mapped;
      not_mapped_code
  | Some (page_size, perms) ->
      let ok =
        match access with
        | `Read -> perms.read
        | `Write -> perms.write
        | `Exec -> perms.exec
      in
      if ok then Addr.page_size_code page_size
      else begin
        note_violation `Perm_denied;
        perm_denied_code
      end
(* warm-end *)

let translate t addr ~access =
  let code = translate_code t addr ~access in
  if code >= 0 then Ok (Addr.page_size_of_code code)
  else
    let reason = if code = not_mapped_code then `Not_mapped else `Perm_denied in
    Error { gpa = addr; access; reason }

let page_size_at t addr = Option.map fst (find_leaf t addr)

let aligned_4k region =
  Addr.is_aligned region.Region.base ~size:Addr.page_size_4k
  && Addr.is_aligned region.Region.len ~size:Addr.page_size_4k

(* Ensure no leaf straddles a boundary of [region]: any leaf that
   overlaps the region without being fully contained in it is split
   into children one level down, repeatedly, until every leaf is
   either fully inside or fully outside.  Needed before unmapping (or
   remapping) so removal can proceed leaf-by-leaf.  After a split the
   descent continues into the freshly created table — the old
   implementation restarted from the root after every split. *)
let split_straddling t region point =
  let rec descend node level =
    match Hashtbl.find_opt node.entries (slice point level) with
    | None -> ()
    | Some (Leaf l) ->
        if level > 1 then begin
          let bytes = Addr.bytes_of_page_size (page_size_of_level level) in
          let base = Addr.page_down point ~size:bytes in
          let contained = Region.contains_range region ~base ~len:bytes in
          if not contained then begin
            split_leaf t node (slice point level) level ~perms:l.perms;
            match Hashtbl.find_opt node.entries (slice point level) with
            | Some (Table n) -> descend n (level - 1)
            | Some (Leaf _) | None -> assert false
          end
        end
    | Some (Table n) -> descend n (level - 1)
  in
  descend t.root 4

let remove_leaves t region =
  (* After boundary splitting, every leaf is either fully inside or
     fully outside [region]; remove the inside ones. *)
  let rec scrub node level base_of_slot =
    let removals = ref [] in
    Hashtbl.iter
      (fun idx e ->
        let slot_base = base_of_slot idx in
        let slot_bytes = 1 lsl level_shift level in
        let slot = Region.make ~base:slot_base ~len:slot_bytes in
        if Region.overlaps slot region then
          match e with
          | Leaf l ->
              if Region.contains_range region ~base:slot_base ~len:slot_bytes
              then begin
                count_delta t l.page_size (-1);
                t.writes <- t.writes + 1;
                removals := idx :: !removals
              end
          | Table n ->
              scrub n (level - 1) (fun i ->
                  slot_base + (i * (1 lsl level_shift (level - 1))));
              if Hashtbl.length n.entries = 0 then removals := idx :: !removals)
      node.entries;
    List.iter (Hashtbl.remove node.entries) !removals
  in
  scrub t.root 4 (fun i -> i * (1 lsl level_shift 4))

(* Greedy aligned chunking, installed as we go: the largest permitted
   page that is aligned and fits, with the dense sub-2M case handed to
   install_pt_window rather than 512 root descents. *)
let install_range t region ~perms =
  let open Region in
  let cap = Addr.bytes_of_page_size t.max_page in
  let lim = limit region in
  let rec go addr =
    if addr < lim then begin
      let remaining = lim - addr in
      if
        cap >= Addr.page_size_1g
        && Addr.is_aligned addr ~size:Addr.page_size_1g
        && remaining >= Addr.page_size_1g
      then begin
        install_leaf t addr ~page_size:Addr.Page_1g ~perms;
        go (addr + Addr.page_size_1g)
      end
      else if
        Addr.is_aligned addr ~size:Addr.page_size_2m
        && remaining >= Addr.page_size_2m
      then begin
        if cap >= Addr.page_size_2m then
          install_leaf t addr ~page_size:Addr.Page_2m ~perms
        else install_pt_window t addr ~perms;
        go (addr + Addr.page_size_2m)
      end
      else if Addr.is_aligned addr ~size:Addr.page_size_4k then begin
        install_leaf t addr ~page_size:Addr.Page_4k ~perms;
        go (addr + Addr.page_size_4k)
      end
      else invalid_arg "Ept: region not 4K-aligned"
    end
  in
  go region.base

let map_region t ?(perms = rwx) region =
  if not (aligned_4k region) then invalid_arg "Ept.map_region: unaligned";
  (* Remapping over existing mappings: clear first so leaf installs
     never collide with finer tables. *)
  let covered = Region.Set.inter t.index (Region.Set.of_list [ region ]) in
  Region.Set.iter
    (fun r ->
      split_straddling t r r.Region.base;
      split_straddling t r (Region.limit r - Addr.page_size_4k);
      remove_leaves t r)
    covered;
  install_range t region ~perms;
  t.index <- Region.Set.add t.index region;
  if !Sanitize.on then
    Sanitize.ept_write ~ept_uid:t.uid ~base:region.Region.base
      ~len:region.Region.len ~present:true

let unmap_region t region =
  if not (aligned_4k region) then invalid_arg "Ept.unmap_region: unaligned";
  let present = Region.Set.inter t.index (Region.Set.of_list [ region ]) in
  Region.Set.iter
    (fun r ->
      split_straddling t r r.Region.base;
      split_straddling t r (Region.limit r - Addr.page_size_4k);
      remove_leaves t r)
    present;
  t.index <- Region.Set.remove t.index region;
  if !Sanitize.on then
    Sanitize.ept_write ~ept_uid:t.uid ~base:region.Region.base
      ~len:region.Region.len ~present:false

let covers t ~base ~len =
  (* Memoized per (base, len): workloads re-check the same buffer on
     every pass.  Any mapping change bumps [writes], which empties the
     memo on the next query. *)
  if t.covers_cache_gen <> t.writes then begin
    Hashtbl.reset t.covers_cache;
    t.covers_cache_gen <- t.writes
  end;
  match Hashtbl.find_opt t.covers_cache (base, len) with
  | Some answer -> answer
  | None ->
      let answer = Region.Set.mem_range t.index ~base ~len in
      Hashtbl.replace t.covers_cache (base, len) answer;
      answer

(* Offline descent over every live leaf in ascending GPA order — the
   static verifier's raw material.  Walks the radix structure itself
   (not the index) so a verifier cross-checks what the hardware would
   actually translate. *)
let fold_leaves t ~init ~f =
  let sorted_keys entries =
    Hashtbl.fold (fun k _ acc -> k :: acc) entries [] |> List.sort compare
  in
  let rec go node level base acc =
    List.fold_left
      (fun acc idx ->
        let slot_base = base + (idx * (1 lsl level_shift level)) in
        match Hashtbl.find node.entries idx with
        | Leaf { page_size; perms } -> f acc ~base:slot_base ~page_size ~perms
        | Table child -> go child (level - 1) slot_base acc)
      acc (sorted_keys node.entries)
  in
  go t.root 4 0 init

let regions t = t.index
let leaf_counts t = (t.n4k, t.n2m, t.n1g)
let entry_writes t = t.writes

let pp ppf t =
  let n4k, n2m, n1g = leaf_counts t in
  Format.fprintf ppf "EPT{%a; leaves 4K=%d 2M=%d 1G=%d}" Region.Set.pp t.index
    n4k n2m n1g
