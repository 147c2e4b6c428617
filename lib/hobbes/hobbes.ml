open Covirt_hw
open Covirt_pisces
open Covirt_kitten

type t = {
  pisces : Pisces.t;
  xemem : Covirt_xemem.Xemem.t;
  kernels : (int, Kitten.t) Hashtbl.t;
  mutable free_vectors : int list;
  mutable free_count : int;  (* [List.length free_vectors], kept so a count is O(1) *)
  allocated_vectors : (int, unit) Hashtbl.t;
      (* vectors handed out by [alloc_ipi_vector] and not yet freed —
         the set the destroy-time scrub may legitimately return to the
         pool (a vector granted by hand in a test was never ours to
         reclaim) *)
  mutable syscalls : int;
}

(* Application IPI vectors live between the syscall/exception space and
   the system vectors (timer at 0xef, XEMEM doorbells etc. above). *)
let app_vector_lo = 0x40
let app_vector_hi = 0xdf
let vector_space = app_vector_hi - app_vector_lo + 1

let free_ipi_vector t v =
  if v < app_vector_lo || v > app_vector_hi then
    invalid_arg "Hobbes.free_ipi_vector";
  Hashtbl.remove t.allocated_vectors v;
  if not (List.mem v t.free_vectors) then begin
    t.free_vectors <- v :: t.free_vectors;
    t.free_count <- t.free_count + 1
  end

(* Destroy-time scrub: under enclave churn every per-tenant entry in
   the global tables is a leak unless something reclaims it when the
   enclave goes away.  This hook (fired by both [Pisces.destroy] and
   [Pisces.reclaim_crashed], before resources are released) retires:
   - the kernel registry entry,
   - every application IPI vector the runtime allocated for grants the
     enclave still holds,
   - every {e surviving} enclave's grant whose destination core belongs
     to the dead enclave — the whitelist entry is per destination core,
     so once the core changes hands the grant is stale per-core state
     the static verifier flags as [Stale_grant]; revoking it here keeps
     a dense churn loop verifier-clean,
   - the name-service records: segments the enclave exported are
     reclaimed through the proper XEMEM path (live attachers are
     notified and unmapped — the war-story bug done right), and the
     enclave is dropped from the attacher lists of surviving
     segments. *)
let scrub_on_destroy t (enclave : Enclave.t) =
  let id = enclave.Enclave.id in
  Hashtbl.remove t.kernels id;
  List.iter
    (fun (v, _peer) ->
      if
        v >= app_vector_lo && v <= app_vector_hi
        && Hashtbl.mem t.allocated_vectors v
      then free_ipi_vector t v)
    enclave.Enclave.granted_vectors;
  let dead_cores = enclave.Enclave.cores in
  let still_granted v =
    List.exists
      (fun (e : Enclave.t) ->
        e.Enclave.id <> id
        && List.exists (fun (v', _) -> v' = v) e.Enclave.granted_vectors)
      (Pisces.enclaves t.pisces)
  in
  List.iter
    (fun (peer : Enclave.t) ->
      if peer.Enclave.id <> id then
        List.iter
          (fun (v, dest) ->
            if List.mem dest dead_cores then begin
              (match
                 Pisces.revoke_ipi_vector ~peer_core:dest t.pisces peer
                   ~vector:v
               with
              | Ok () | Error _ -> ());
              if Hashtbl.mem t.allocated_vectors v && not (still_granted v)
              then free_ipi_vector t v
            end)
          peer.Enclave.granted_vectors)
    (Pisces.enclaves t.pisces);
  let registry = Covirt_xemem.Xemem.registry t.xemem in
  List.iter
    (fun (seg : Covirt_xemem.Name_service.segment) ->
      match seg.Covirt_xemem.Name_service.exporter with
      | Covirt_xemem.Name_service.Enclave_export e when e = id -> (
          match
            Covirt_xemem.Xemem.reclaim_export t.xemem
              ~name:seg.Covirt_xemem.Name_service.name ()
          with
          | Ok () -> ()
          | Error _ ->
              (* An attacher refused the unmap (e.g. it is mid-crash
                 itself); the record must still not outlive its
                 exporter. *)
              Covirt_xemem.Name_service.remove registry
                ~segid:seg.Covirt_xemem.Name_service.segid)
      | _ ->
          if List.mem id seg.Covirt_xemem.Name_service.attachers then
            Covirt_xemem.Name_service.note_detach registry
              ~segid:seg.Covirt_xemem.Name_service.segid ~enclave:id)
    (Covirt_xemem.Name_service.segments registry)

let create machine ~host_core =
  let pisces = Pisces.create machine ~host_core in
  let t =
    {
      pisces;
      xemem = Covirt_xemem.Xemem.create pisces;
      kernels = Hashtbl.create 8;
      free_vectors = List.init vector_space (fun i -> app_vector_lo + i);
      free_count = vector_space;
      allocated_vectors = Hashtbl.create 8;
      syscalls = 0;
    }
  in
  Pisces.set_syscall_handler pisces (fun ~number ~arg ->
      t.syscalls <- t.syscalls + 1;
      (* The general-purpose OS/R services the forwarded call; model a
         successful completion echoing the argument size for
         read/write. *)
      ignore number;
      arg);
  let hooks = Pisces.hooks pisces in
  hooks.Hooks.on_enclave_destroyed <-
    hooks.Hooks.on_enclave_destroyed @ [ scrub_on_destroy t ];
  t

let pisces t = t.pisces
let xemem t = t.xemem
let machine t = Pisces.machine t.pisces

let create_node ?(seed = 7) ?(zones = 2) ?host_reserved_mib ~cores_per_zone
    ~mem_mib_per_zone () =
  let mib = Covirt_sim.Units.mib in
  let host_reserved_per_zone =
    match host_reserved_mib with Some m -> m * mib | None -> 128 * mib
  in
  let machine =
    Machine.create ~seed ~zones ~cores_per_zone
      ~mem_per_zone:(mem_mib_per_zone * mib) ~host_reserved_per_zone ()
  in
  create machine ~host_core:0

let launch_enclave t ~name ~cores ~mem ?timer_hz () =
  match Pisces.create_enclave t.pisces ~name ~cores ~mem ?timer_hz () with
  | Error e -> Error e
  | Ok enclave -> (
      let kernel, get = Kitten.make_kernel () in
      match Pisces.boot t.pisces enclave ~kernel with
      | Error e -> Error e
      | Ok () -> (
          match get () with
          | None -> Error "kitten did not initialize"
          | Some kitten ->
              Hashtbl.replace t.kernels enclave.Enclave.id kitten;
              Kitten.set_host_poke kitten (fun () ->
                  ignore (Pisces.service_channel t.pisces enclave));
              Ok (enclave, kitten)))

let kernel_of t enclave = Hashtbl.find_opt t.kernels enclave.Enclave.id
let kernel_count t = Hashtbl.length t.kernels

let export_window t (enclave : Enclave.t) ~name ~offset ~len =
  match Region.Set.to_list enclave.Enclave.memory with
  | [] -> Error "enclave has no memory"
  | r :: _ ->
      if offset < 0 || len <= 0 || offset + len > r.Region.len then
        Error "window outside the enclave's first region"
      else
        Covirt_xemem.Xemem.export t.xemem
          ~exporter:(Covirt_xemem.Name_service.Enclave_export enclave.Enclave.id)
          ~name
          ~pages:[ Region.make ~base:(r.Region.base + offset) ~len ]

let alloc_ipi_vector t =
  match t.free_vectors with
  | [] -> Error "application IPI vector space exhausted"
  | v :: rest ->
      t.free_vectors <- rest;
      t.free_count <- t.free_count - 1;
      Hashtbl.replace t.allocated_vectors v ();
      Ok v

let free_vector_count t = t.free_count
let allocated_vector_count t = Hashtbl.length t.allocated_vectors

let grant_vector_pair t a b =
  match (alloc_ipi_vector t, alloc_ipi_vector t) with
  | Ok va, Ok vb -> (
      let grant enclave vector peer =
        Pisces.grant_ipi_vector t.pisces enclave ~vector
          ~peer_core:(Enclave.bsp peer)
      in
      match (grant a va b, grant b vb a) with
      | Ok (), Ok () -> Ok (va, vb)
      | Error e, _ | _, Error e ->
          free_ipi_vector t va;
          free_ipi_vector t vb;
          Error e)
  | Error e, _ | _, Error e -> Error e

let syscalls_serviced t = t.syscalls

let pp_status ppf t =
  Format.fprintf ppf "hobbes: %d enclaves, %d xemem segments, %d syscalls@."
    (List.length (Pisces.enclaves t.pisces))
    (List.length
       (Covirt_xemem.Name_service.segments
          (Covirt_xemem.Xemem.registry t.xemem)))
    t.syscalls;
  List.iter
    (fun e -> Format.fprintf ppf "  %a@." Enclave.pp e)
    (Pisces.enclaves t.pisces)
