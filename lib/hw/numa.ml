type zone = int

type t = { zones : int; cores_per_zone : int; mem_per_zone : int }

let create ~zones ~cores_per_zone ~mem_per_zone =
  if zones <= 0 || cores_per_zone <= 0 || mem_per_zone <= 0 then
    invalid_arg "Numa.create";
  { zones; cores_per_zone; mem_per_zone }

let zones t = t.zones
let cores_per_zone t = t.cores_per_zone
let cores t = t.zones * t.cores_per_zone
let mem_per_zone t = t.mem_per_zone
let total_mem t = t.zones * t.mem_per_zone

let zone_of_core t ~core =
  if core < 0 || core >= cores t then invalid_arg "Numa.zone_of_core";
  core / t.cores_per_zone

let zone_of_addr t a =
  if a < 0 then invalid_arg "Numa.zone_of_addr";
  min (a / t.mem_per_zone) (t.zones - 1)

let cores_of_zone t z =
  if z < 0 || z >= t.zones then invalid_arg "Numa.cores_of_zone";
  List.init t.cores_per_zone (fun i -> (z * t.cores_per_zone) + i)

let zone_range t z =
  if z < 0 || z >= t.zones then invalid_arg "Numa.zone_range";
  Region.make ~base:(z * t.mem_per_zone) ~len:t.mem_per_zone

(* [zone_of_addr t a = zone] without the division. *)
let addr_in_zone t ~zone a =
  if zone < 0 || zone >= t.zones then invalid_arg "Numa.addr_in_zone";
  if a < 0 then invalid_arg "Numa.zone_of_addr";
  let lo = zone * t.mem_per_zone in
  a >= lo && (zone = t.zones - 1 || a < lo + t.mem_per_zone)

let is_local t ~core ~addr = addr_in_zone t ~zone:(zone_of_core t ~core) addr

let pp ppf t =
  Format.fprintf ppf "%d zones x (%d cores, %a)" t.zones t.cores_per_zone
    Covirt_sim.Units.pp_bytes t.mem_per_zone
