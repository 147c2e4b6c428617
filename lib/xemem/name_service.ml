open Covirt_hw

type exporter = Host_export | Enclave_export of int

type segment = {
  segid : int;
  name : string;
  exporter : exporter;
  pages : Region.t list;
  mutable attachers : int list;
}

type t = {
  by_name : (string, segment) Hashtbl.t;
  by_segid : (int, segment) Hashtbl.t;
  by_enclave : (int, int list) Hashtbl.t;
      (* enclave -> segids it exports or is attached to, each once *)
  mutable next_segid : int;
}

let create () =
  {
    by_name = Hashtbl.create 16;
    by_segid = Hashtbl.create 16;
    by_enclave = Hashtbl.create 16;
    next_segid = 0x100;
  }

let involves s enclave =
  s.exporter = Enclave_export enclave || List.mem enclave s.attachers

let segids_of t ~enclave =
  List.sort Int.compare
    (Option.value ~default:[] (Hashtbl.find_opt t.by_enclave enclave))

let index t enclave segid =
  let segids = Option.value ~default:[] (Hashtbl.find_opt t.by_enclave enclave) in
  if not (List.mem segid segids) then
    Hashtbl.replace t.by_enclave enclave (segid :: segids)

let unindex t enclave segid =
  match Hashtbl.find_opt t.by_enclave enclave with
  | None -> ()
  | Some segids -> (
      match List.filter (( <> ) segid) segids with
      | [] -> Hashtbl.remove t.by_enclave enclave
      | rest -> Hashtbl.replace t.by_enclave enclave rest)

let aligned r =
  Addr.is_aligned r.Region.base ~size:Addr.page_size_4k
  && Addr.is_aligned r.Region.len ~size:Addr.page_size_4k

let register t ~name ~exporter ~pages =
  if Hashtbl.mem t.by_name name then
    Error (Printf.sprintf "segment %S already exported" name)
  else if pages = [] then Error "empty page list"
  else if not (List.for_all aligned pages) then
    Error "XEMEM shares whole 4K frames; pages must be frame-aligned"
  else begin
    let segid = t.next_segid in
    t.next_segid <- t.next_segid + 1;
    let segment = { segid; name; exporter; pages; attachers = [] } in
    Hashtbl.replace t.by_name name segment;
    Hashtbl.replace t.by_segid segid segment;
    (match exporter with
    | Enclave_export e -> index t e segid
    | Host_export -> ());
    Ok segment
  end

let lookup t ~name = Hashtbl.find_opt t.by_name name

let regions_for t ~enclave =
  Hashtbl.fold
    (fun _ s acc ->
      if involves s enclave then List.fold_left Region.Set.add acc s.pages
      else acc)
    t.by_segid Region.Set.empty
let lookup_segid t ~segid = Hashtbl.find_opt t.by_segid segid

let note_attach t ~segid ~enclave =
  match lookup_segid t ~segid with
  | Some s ->
      if not (List.mem enclave s.attachers) then begin
        s.attachers <- enclave :: s.attachers;
        index t enclave segid
      end
  | None -> ()

let note_detach t ~segid ~enclave =
  match lookup_segid t ~segid with
  | Some s ->
      s.attachers <- List.filter (( <> ) enclave) s.attachers;
      if not (involves s enclave) then unindex t enclave segid
  | None -> ()

let remove t ~segid =
  match lookup_segid t ~segid with
  | Some s ->
      Hashtbl.remove t.by_name s.name;
      Hashtbl.remove t.by_segid segid;
      (match s.exporter with
      | Enclave_export e -> unindex t e segid
      | Host_export -> ());
      List.iter (fun e -> unindex t e segid) s.attachers
  | None -> ()

let segments t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.by_segid []
  |> List.sort (fun a b -> compare a.segid b.segid)
