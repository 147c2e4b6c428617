open Covirt_hw

type t = {
  mutable owned : Region.Set.t;
  shared : (int, Region.t list) Hashtbl.t;
  device_windows : (string, Region.t) Hashtbl.t;
}

let create regions =
  {
    owned = Region.Set.of_list regions;
    shared = Hashtbl.create 8;
    device_windows = Hashtbl.create 4;
  }

let owned t = t.owned

let usable t =
  let with_shared =
    Hashtbl.fold
      (fun _ pages acc -> List.fold_left Region.Set.add acc pages)
      t.shared t.owned
  in
  Hashtbl.fold
    (fun _ window acc -> Region.Set.add acc window)
    t.device_windows with_shared

let believes_usable t addr = Region.Set.mem (usable t) addr
let add t region = t.owned <- Region.Set.add t.owned region
let remove t region = t.owned <- Region.Set.remove t.owned region

let add_shared t ~segid pages =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.shared segid) in
  Hashtbl.replace t.shared segid (existing @ pages)

let remove_shared t ~segid = Hashtbl.remove t.shared segid

let shared_segments t =
  Hashtbl.fold (fun segid pages acc -> (segid, pages) :: acc) t.shared []
  |> List.sort compare

let add_device t ~name window = Hashtbl.replace t.device_windows name window
let remove_device t ~name = Hashtbl.remove t.device_windows name
let device_window t ~name = Hashtbl.find_opt t.device_windows name

let devices t =
  Hashtbl.fold (fun name window acc -> (name, window) :: acc) t.device_windows []
  |> List.sort compare

let inject_phantom t region = t.owned <- Region.Set.add t.owned region

let pp ppf t =
  Format.fprintf ppf "owned=%a shared=[%s]" Region.Set.pp t.owned
    (String.concat ";"
       (List.map (fun (s, _) -> string_of_int s) (shared_segments t)))
