open Covirt_hw
open Covirt_pisces

type instance = {
  enclave : Enclave.t;
  config : Config.t;
  ept_mgr : Ept_manager.t option;
  whitelist : Whitelist.t;
  mutable hypervisors : (int * Hypervisor.t) list;
  mutable reports : Fault_report.t list;
}

(* The exact closures this controller registered with the framework,
   kept so [detach] can remove them without disturbing hooks installed
   by other consumers. *)
type registration = {
  r_created : Enclave.t -> unit;
  r_pre_map : Enclave.t -> Region.t -> unit;
  r_post_unmap : Enclave.t -> Region.t -> unit;
  r_grant : Enclave.t -> vector:int -> peer_core:int -> unit;
  r_revoke : Enclave.t -> vector:int -> dest:int option -> unit;
  r_destroyed : Enclave.t -> unit;
}

type t = {
  pisces : Pisces.t;
  default_config : Config.t;
  overrides : (string, Config.t) Hashtbl.t;
  instances : (int, instance) Hashtbl.t;  (* live, by enclave id *)
  grants_to : Grant_index.t;
      (* the instances' whitelist grants, by destination core *)
  archived : (int, Fault_report.t list) Hashtbl.t;
      (* reports survive enclave destruction: they are the master
         control process's debugging record *)
  archived_drops : (int, int) Hashtbl.t;
      (* dropped-IPI counters, archived alongside the reports *)
  mutable subscribers : (Fault_report.t -> unit) list;
  mutable registered : registration option;
}

let pisces t = t.pisces
(* Newest first: enclave ids are handed out in creation order. *)
let instances t =
  Hashtbl.fold (fun _ i acc -> i :: acc) t.instances []
  |> List.sort (fun a b -> Int.compare b.enclave.Enclave.id a.enclave.Enclave.id)

let instance_for t ~enclave_id = Hashtbl.find_opt t.instances enclave_id

let granting_instances t ~cores =
  List.filter_map (Hashtbl.find_opt t.instances)
    (Grant_index.holders t.grants_to ~keys:cores)

let reports_for t ~enclave_id =
  match instance_for t ~enclave_id with
  | Some i -> List.rev i.reports
  | None ->
      List.rev (Option.value ~default:[] (Hashtbl.find_opt t.archived enclave_id))

let dropped_ipis t ~enclave_id =
  match instance_for t ~enclave_id with
  | Some i -> Whitelist.dropped i.whitelist
  | None ->
      Option.value ~default:0 (Hashtbl.find_opt t.archived_drops enclave_id)

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

(* Fault-report observability: a per-kind counter and an instant on the
   faulting (enclave, cpu) trace track. *)
let m_fault = lazy (Covirt_obs.Metrics.counter "fault.report")

let obs_report (report : Fault_report.t) =
  let kind = Fault_report.kind_name report.Fault_report.kind in
  if !Covirt_obs.Metrics.on then
    Covirt_obs.Metrics.add
      (Covirt_obs.Metrics.cell (Lazy.force m_fault)
         {
           Covirt_obs.Metrics.enclave = report.Fault_report.enclave;
           cpu = report.Fault_report.cpu;
           dim = kind;
         })
      1;
  if !Covirt_obs.Exporter.on then
    Covirt_obs.Span.instant
      ~name:("fault:" ^ kind)
      ~cat:"fault"
      ~args:[ ("fatal", string_of_bool report.Fault_report.fatal) ]
      ~pid:report.Fault_report.enclave ~tid:report.Fault_report.cpu
      ~ts:report.Fault_report.tsc ()

let record_report t (report : Fault_report.t) =
  if !Covirt_obs.Metrics.on || !Covirt_obs.Exporter.on then obs_report report;
  (match instance_for t ~enclave_id:report.Fault_report.enclave with
  | Some i -> i.reports <- report :: i.reports
  | None ->
      (* Already destroyed (e.g. a report raised during teardown):
         straight to the archive so it is never lost. *)
      Hashtbl.replace t.archived report.Fault_report.enclave
        (report
        :: Option.value ~default:[]
             (Hashtbl.find_opt t.archived report.Fault_report.enclave)));
  List.iter (fun f -> f report) t.subscribers

let total_flush_commands t =
  Hashtbl.fold
    (fun _ i acc ->
      List.fold_left (fun a (_, hv) -> a + Hypervisor.flushes hv) acc
        i.hypervisors)
    t.instances 0

(* Shadow-sanitizer violations surface as non-fatal reports: the
   supervisor only reacts to fatal ones, so detection never perturbs
   recovery behavior (and record_report charges no cycles). *)
let sanitizer_report t (v : Sanitize.violation) =
  {
    Fault_report.enclave = v.Sanitize.enclave;
    cpu = v.Sanitize.cpu;
    tsc = Cpu.rdtsc (Pisces.host_cpu t.pisces);
    kind = Fault_report.Sanitizer;
    fatal = false;
    detail = Format.asprintf "%a" Sanitize.pp_violation v;
  }

let config_for t enclave =
  Option.value ~default:t.default_config
    (Hashtbl.find_opt t.overrides enclave.Enclave.name)

let set_override t ~enclave_name config =
  Hashtbl.replace t.overrides enclave_name config

(* ------------------------------------------------------------------ *)
(* Hook implementations.                                               *)

let on_created t enclave =
  let config = config_for t enclave in
  if config.Config.enabled then begin
    let ept_mgr =
      if config.Config.memory then
        Some (Ept_manager.create ~max_page:config.Config.max_ept_page)
      else None
    in
    let instance =
      {
        enclave;
        config;
        ept_mgr;
        whitelist =
          Whitelist.create_indexed ~index:t.grants_to
            ~holder:enclave.Enclave.id ~enclave_cores:enclave.Enclave.cores;
        hypervisors = [];
        reports = [];
      }
    in
    (* Seed the shadow sanitizer before the first EPT write, so the
       pre-built identity map is checked against a blessed set rather
       than flagged. *)
    if !Sanitize.on then begin
      Sanitize.note_enclave ~id:enclave.Enclave.id
        (Region.Set.to_list (Enclave.accessible enclave));
      match ept_mgr with
      | Some mgr ->
          Sanitize.note_ept
            ~ept_uid:(Ept.uid (Ept_manager.ept mgr))
            ~id:enclave.Enclave.id
      | None -> ()
    end;
    (* Pre-build the identity map of the assigned memory before any
       core can boot. *)
    (match ept_mgr with
    | Some mgr ->
        let machine = Pisces.machine t.pisces in
        Region.Set.iter
          (fun region ->
            Ept_manager.map machine ~host_cpu:(Pisces.host_cpu t.pisces) mgr
              region)
          enclave.Enclave.memory
    | None -> ());
    Hashtbl.replace t.instances enclave.Enclave.id instance
  end

let interpose t enclave (cpu : Cpu.t) ~bsp jump =
  ignore bsp;
  match instance_for t ~enclave_id:enclave.Enclave.id with
  | None -> jump () (* native boot *)
  | Some instance ->
      let machine = Pisces.machine t.pisces in
      let params =
        match enclave.Enclave.boot_params with
        | Some p -> p
        | None -> invalid_arg "Covirt interposer: enclave has no boot params"
      in
      (* The controller writes the VMCS and the Covirt boot-parameter
         structure before the CPU starts. *)
      let vmcs =
        Vmcs_builder.build ~enclave ~params ~core:cpu.Cpu.id
          ~config:instance.config
          ~ept:(Option.map Ept_manager.ept instance.ept_mgr)
      in
      let boot_params = Vmcs_builder.covirt_boot_params ~params in
      let hv =
        Hypervisor.create ~machine ~cpu ~vmcs ~boot_params
          ~whitelist:instance.whitelist ~report:(fun r -> record_report t r)
      in
      instance.hypervisors <- (cpu.Cpu.id, hv) :: instance.hypervisors;
      Hypervisor.launch hv;
      (* VM launch lands directly at the co-kernel entry point, with
         the original Pisces boot parameters in a register. *)
      jump ()

let with_ept instance f =
  match instance.ept_mgr with Some mgr -> f mgr | None -> ()

let on_pre_map t enclave region =
  match instance_for t ~enclave_id:enclave.Enclave.id with
  | None -> ()
  | Some instance ->
      if !Sanitize.on then Sanitize.allow ~id:enclave.Enclave.id region;
      with_ept instance (fun mgr ->
          let machine = Pisces.machine t.pisces in
          (* Map first, transmit after: the enclave only learns of
             memory that is already accessible.  No flush needed — no
             core can hold a stale translation for a new mapping. *)
          Ept_manager.map machine ~host_cpu:(Pisces.host_cpu t.pisces) mgr
            region)

let signal_all_cores t instance command =
  let machine = Pisces.machine t.pisces in
  List.iter
    (fun (core, hv) ->
      (match Command.enqueue (Hypervisor.queue hv) command with
      | Ok () -> ()
      | Error _ -> (
          (* A full ring means the core is wedged; drain by NMI first. *)
          Machine.post_host_nmi machine ~dest:core;
          match Command.enqueue (Hypervisor.queue hv) command with
          | Ok () -> ()
          | Error why ->
              (* Still full after the drain: the core is not making
                 progress and a synchronization command was lost.  This
                 must never pass silently — it is exactly the wedged
                 state the watchdog exists for. *)
              record_report t
                {
                  Fault_report.enclave = instance.enclave.Enclave.id;
                  cpu = core;
                  tsc = Cpu.rdtsc (Pisces.host_cpu t.pisces);
                  kind = Fault_report.Queue_stall;
                  fatal = false;
                  detail =
                    Format.asprintf
                      "command ring on core %d still full after NMI drain \
                       (%s); %a lost"
                      core why Command.pp_command command;
                }));
      Machine.post_host_nmi machine ~dest:core)
    instance.hypervisors

let on_post_unmap t enclave region =
  match instance_for t ~enclave_id:enclave.Enclave.id with
  | None -> ()
  | Some instance ->
      with_ept instance (fun mgr ->
          let machine = Pisces.machine t.pisces in
          (* The co-kernel acked removal; pull the mapping, then force
             every enclave core to flush before the frames can be
             reused by anyone else. *)
          Ept_manager.unmap machine ~host_cpu:(Pisces.host_cpu t.pisces) mgr
            region;
          signal_all_cores t instance (Command.Flush_tlb region);
          (* The NMIs are synchronous in the simulation; assert the
             protocol's postcondition anyway. *)
          List.iter
            (fun (_, hv) -> assert (Command.pending (Hypervisor.queue hv) = 0))
            instance.hypervisors);
      if !Sanitize.on then Sanitize.disallow ~id:enclave.Enclave.id region

let on_vector_grant t enclave ~vector ~peer_core =
  match instance_for t ~enclave_id:enclave.Enclave.id with
  | None -> ()
  | Some instance ->
      Whitelist.grant instance.whitelist ~vector ~dest:peer_core;
      Cpu.charge (Pisces.host_cpu t.pisces) 150

let on_vector_revoke t enclave ~vector ~dest =
  match instance_for t ~enclave_id:enclave.Enclave.id with
  | None -> ()
  | Some instance ->
      Whitelist.revoke ?dest instance.whitelist ~vector;
      (* Revocation must synchronize: a core might be mid-decision. *)
      signal_all_cores t instance Command.Whitelist_updated

let on_destroyed t enclave =
  (match instance_for t ~enclave_id:enclave.Enclave.id with
  | Some i ->
      (* The whitelist dies with the instance; keep its reports and
         dropped-IPI count so post-mortem queries stay truthful.  Only
         non-empty answers are kept: the lookups default to [[]] and
         0, and the archive lives as long as the controller. *)
      if i.reports <> [] then
        Hashtbl.replace t.archived enclave.Enclave.id i.reports;
      let drops = Whitelist.dropped i.whitelist in
      if drops <> 0 then
        Hashtbl.replace t.archived_drops enclave.Enclave.id drops;
      Whitelist.retire i.whitelist;
      Hashtbl.remove t.instances enclave.Enclave.id
  | None -> ());
  if !Sanitize.on then Sanitize.drop_enclave ~id:enclave.Enclave.id;
  (* Grants aimed at the dead enclave's cores are stale the moment
     those cores return to the host; prune them from every surviving
     instance so the static verifier's stale-grant check starts from a
     clean slate.  Only the instances the index names are visited. *)
  let dead = enclave.Enclave.cores in
  List.iter
    (fun inst ->
      let stale =
        List.filter
          (fun (_, d) -> List.mem d dead)
          (Whitelist.grants inst.whitelist)
      in
      List.iter
        (fun (vector, dest) -> Whitelist.revoke ~dest inst.whitelist ~vector)
        stale;
      signal_all_cores t inst Command.Whitelist_updated)
    (granting_instances t ~cores:dead)

(* ------------------------------------------------------------------ *)

let attach pisces ~config =
  (* The sanitizer switch is enable-only: one armed controller turns it
     on, and a later plain attach cannot silence it. *)
  if config.Config.sanitize then Sanitize.request ();
  let t =
    {
      pisces;
      default_config = config;
      overrides = Hashtbl.create 4;
      instances = Hashtbl.create 16;
      grants_to = Grant_index.create ();
      archived = Hashtbl.create 4;
      archived_drops = Hashtbl.create 4;
      subscribers = [];
      registered = None;
    }
  in
  let reg =
    {
      r_created = on_created t;
      r_pre_map = on_pre_map t;
      r_post_unmap = on_post_unmap t;
      r_grant = (fun e ~vector ~peer_core -> on_vector_grant t e ~vector ~peer_core);
      r_revoke = (fun e ~vector ~dest -> on_vector_revoke t e ~vector ~dest);
      r_destroyed = on_destroyed t;
    }
  in
  t.registered <- Some reg;
  (* Arm the shadow sanitizer for this machine if anyone asked for it
     (via Config.sanitize here, or Sanitize.request from a harness). *)
  if Sanitize.requested () then begin
    let mem = (Pisces.machine pisces).Machine.mem in
    Sanitize.enable ~mem_uid:(Phys_mem.uid mem)
      ~assignments:(Phys_mem.snapshot mem);
    Sanitize.set_on_violation (fun v -> record_report t (sanitizer_report t v))
  end;
  let hooks = Pisces.hooks pisces in
  hooks.Hooks.on_enclave_created <-
    hooks.Hooks.on_enclave_created @ [ reg.r_created ];
  hooks.Hooks.pre_memory_map <-
    hooks.Hooks.pre_memory_map @ [ reg.r_pre_map ];
  hooks.Hooks.post_memory_unmap <-
    hooks.Hooks.post_memory_unmap @ [ reg.r_post_unmap ];
  hooks.Hooks.pre_vector_grant <-
    hooks.Hooks.pre_vector_grant @ [ reg.r_grant ];
  hooks.Hooks.post_vector_revoke <-
    hooks.Hooks.post_vector_revoke @ [ reg.r_revoke ];
  hooks.Hooks.on_enclave_destroyed <-
    hooks.Hooks.on_enclave_destroyed @ [ reg.r_destroyed ];
  Hooks.set_boot_interposer hooks (fun e cpu ~bsp jump ->
      interpose t e cpu ~bsp jump);
  t

let detach t =
  let hooks = Pisces.hooks t.pisces in
  (* Remove only the closures this controller registered (by physical
     identity); other hook consumers survive a detach/re-attach cycle. *)
  (match t.registered with
  | None -> ()
  | Some reg ->
      let without mine = List.filter (fun f -> f != mine) in
      hooks.Hooks.on_enclave_created <-
        without reg.r_created hooks.Hooks.on_enclave_created;
      hooks.Hooks.pre_memory_map <-
        without reg.r_pre_map hooks.Hooks.pre_memory_map;
      hooks.Hooks.post_memory_unmap <-
        without reg.r_post_unmap hooks.Hooks.post_memory_unmap;
      hooks.Hooks.pre_vector_grant <-
        without reg.r_grant hooks.Hooks.pre_vector_grant;
      hooks.Hooks.post_vector_revoke <-
        without reg.r_revoke hooks.Hooks.post_vector_revoke;
      hooks.Hooks.on_enclave_destroyed <-
        without reg.r_destroyed hooks.Hooks.on_enclave_destroyed;
      t.registered <- None);
  (* No grant state may outlive the controller that installed it —
     the verifier's stale-grant check starts clean after a detach. *)
  Hashtbl.iter (fun _ inst -> Whitelist.clear inst.whitelist) t.instances;
  Hooks.clear_boot_interposer hooks
