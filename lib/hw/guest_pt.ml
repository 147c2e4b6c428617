type t = Ept.t

let create ?max_page () = Ept.create ?max_page ()
let map_region t region = Ept.map_region t region
let unmap_region t region = Ept.unmap_region t region

let translate t addr =
  match Ept.translate t addr ~access:`Read with
  | Ok ps -> Ok ps
  | Error _ -> Error addr

let maps t addr = Result.is_ok (translate t addr)
let leaf_counts t = Ept.leaf_counts t

let direct_map ~total_mem =
  let t = create () in
  let len = Addr.page_up total_mem ~size:Addr.page_size_4k in
  map_region t (Region.make ~base:0 ~len);
  t
