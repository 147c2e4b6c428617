type t = Ept.t

let create ?max_page () = Ept.create ?max_page ()
let map_region t region = Ept.map_region t region
let unmap_region t region = Ept.unmap_region t region

(* [Ept.page_size_at], not [Ept.translate]: a miss here is the
   kernel's own page fault, which Covirt never sees, so it must not
   count as an EPT violation.  The table maps everything RWX, so the
   leaf's presence is the whole answer. *)
let translate t addr =
  match Ept.page_size_at t addr with Some ps -> Ok ps | None -> Error addr

let maps t addr = Result.is_ok (translate t addr)
let leaf_counts t = Ept.leaf_counts t

let direct_map ~total_mem =
  let t = create () in
  let len = Addr.page_up total_mem ~size:Addr.page_size_4k in
  map_region t (Region.make ~base:0 ~len);
  t
