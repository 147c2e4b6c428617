(* Shadow ownership sanitizer (hw side).

   This module is the low half of the isolation sanitizer: a
   process-global hook registry that the hot paths in [Phys_mem],
   [Ept], [Tlb] and [Machine] feed when — and only when — sanitizing
   is enabled.  It deliberately depends on nothing but the address
   vocabulary ([Addr] / [Region] / [Owner]) so that every other hw
   module may call into it without creating a cycle.

   The contract mirrors lib/obs: a single [!on] branch per site, no
   simulated-cycle charges ever, and byte-identical transcripts with
   the mode enabled.  The controller (lib/core) owns the policy half:
   it enables the shadow state from a [Phys_mem] snapshot, feeds the
   per-enclave blessed sets, and translates violations into
   [Fault_report]s. *)

type access = [ `Read | `Write | `Exec ]

type kind =
  | Cross_owner of { actual : Owner.t }
  | Freed_access
  | Corrupt_mapping of { actual : Owner.t }

type source = Access | Ept_write | Tlb_install

type violation = {
  owner : Owner.t;
  enclave : int;
  cpu : int;
  addr : Addr.t;
  len : int;
  kind : kind;
  source : source;
}

let pp_kind ppf = function
  | Cross_owner { actual } ->
      Format.fprintf ppf "cross-owner (actual %a)" Owner.pp actual
  | Freed_access -> Format.fprintf ppf "freed-region access"
  | Corrupt_mapping { actual } ->
      Format.fprintf ppf "corrupt mapping (actual %a)" Owner.pp actual

let source_name = function
  | Access -> "access"
  | Ept_write -> "ept-write"
  | Tlb_install -> "tlb-install"

let pp_violation ppf v =
  Format.fprintf ppf "%s by %a cpu%d at %a+%d: %a" (source_name v.source)
    Owner.pp v.owner v.cpu Addr.pp v.addr v.len pp_kind v.kind

(* --- switches ------------------------------------------------------- *)

(* [on] is the single branch every hot-path site tests.  [wanted] is
   the sticky request flag: harnesses flip it before building a stack,
   and the next [Covirt.Controller.attach] arms the shadow state for
   its machine.  Both are shared across domains and must only be
   written outside a fleet (before spawn / after join); the shadow
   state itself is per-domain (below), so each fleet shard arms and
   tears down its own machine's sanitizer without touching its
   neighbours'. *)
let on = ref false
let wanted = ref false
let request () = wanted := true
let requested () = !wanted

type stats = {
  accesses : int;  (** translated accesses checked *)
  ept_writes : int;  (** EPT map/unmap events mirrored *)
  tlb_installs : int;  (** TLB fills mirrored *)
}

type state = {
  mem_uid : int;
  (* shadow ownership map: owner -> regions, mirrored from Phys_mem
     events.  A handful of owners, so an assoc list beats a map. *)
  mutable shadow : (Owner.t * Region.Set.t) list;
  (* enclave id -> regions the control plane believes it may touch *)
  allowed : (int, Region.Set.t) Hashtbl.t;
  (* ept uid -> owning enclave id *)
  epts : (int, int) Hashtbl.t;
  mutable violations : violation list;  (* newest first, capped *)
  mutable kept : int;
  mutable accesses : int;
  mutable ept_writes : int;
  mutable tlb_installs : int;
}

let max_kept = 512

(* Per-domain: the armed shadow state, the cumulative violation count
   (survives re-attach so campaigns can diff it per trial), and the
   controller's violation callback.  All three travel together — a
   violation raised in one domain must never invoke another domain's
   controller. *)
type dls = {
  mutable st : state option;
  mutable total : int;
  mutable callback : violation -> unit;
}

let dls_key =
  Domain.DLS.new_key (fun () ->
      { st = None; total = 0; callback = (fun _ -> ()) })

let dls () = Domain.DLS.get dls_key

let set_on_violation f = (dls ()).callback <- f

let disable () =
  let d = dls () in
  d.st <- None;
  d.callback <- (fun _ -> ());
  (* Other domains' shards may still be armed under the same sticky
     request, so a disable only drops [on] once the request is gone. *)
  on := !wanted

let release () =
  wanted := false;
  disable ()

(* --- shadow map maintenance ----------------------------------------- *)

let shadow_add shadow owner region =
  let rec go = function
    | [] -> [ (owner, Region.Set.of_list [ region ]) ]
    | (o, set) :: rest when Owner.equal o owner ->
        (o, Region.Set.add set region) :: rest
    | pair :: rest -> pair :: go rest
  in
  go shadow

let shadow_clear shadow region =
  List.map (fun (o, set) -> (o, Region.Set.remove set region)) shadow

let shadow_owner st addr =
  let rec go = function
    | [] -> Owner.Free
    | (o, set) :: rest -> if Region.Set.mem set addr then o else go rest
  in
  go st.shadow

let enable ~mem_uid ~assignments =
  let shadow =
    List.fold_left
      (fun acc (region, owner) -> shadow_add acc owner region)
      [] assignments
  in
  (dls ()).st <-
    Some
      {
        mem_uid;
        shadow;
        allowed = Hashtbl.create 8;
        epts = Hashtbl.create 8;
        violations = [];
        kept = 0;
        accesses = 0;
        ept_writes = 0;
        tlb_installs = 0;
      };
  on := true

(* --- controller-facing feeds ---------------------------------------- *)

let with_state f = match (dls ()).st with Some st -> f st | None -> ()

let note_enclave ~id regions =
  with_state (fun st ->
      Hashtbl.replace st.allowed id (Region.Set.of_list regions))

let note_ept ~ept_uid ~id =
  with_state (fun st -> Hashtbl.replace st.epts ept_uid id)

let allow ~id region =
  with_state (fun st ->
      let set =
        match Hashtbl.find_opt st.allowed id with
        | Some set -> Region.Set.add set region
        | None -> Region.Set.of_list [ region ]
      in
      Hashtbl.replace st.allowed id set)

let disallow ~id region =
  with_state (fun st ->
      match Hashtbl.find_opt st.allowed id with
      | Some set -> Hashtbl.replace st.allowed id (Region.Set.remove set region)
      | None -> ())

let drop_enclave ~id =
  with_state (fun st ->
      Hashtbl.remove st.allowed id;
      let stale =
        Hashtbl.fold
          (fun uid owner acc -> if owner = id then uid :: acc else acc)
          st.epts []
      in
      List.iter (Hashtbl.remove st.epts) stale)

(* --- violation recording -------------------------------------------- *)

(* Probe point: the kind of every reported violation. *)
let violated : (kind, unit) Covirt_obs.Probe.point = Covirt_obs.Probe.point ()

let report st v =
  if !Covirt_obs.Probe.on then Covirt_obs.Probe.fire violated v.kind ();
  let d = dls () in
  d.total <- d.total + 1;
  if st.kept < max_kept then begin
    st.violations <- v :: st.violations;
    st.kept <- st.kept + 1
  end;
  d.callback v

(* --- hw-facing hooks ------------------------------------------------- *)

let phys_event ~mem_uid region owner =
  match (dls ()).st with
  | Some st when st.mem_uid = mem_uid ->
      let cleared = shadow_clear st.shadow region in
      st.shadow <-
        (match owner with
        | Owner.Free -> cleared
        | owner -> shadow_add cleared owner region)
  | _ -> ()

(* Classify the pieces of [base,len) the control plane never blessed
   for [id], using the shadow map to name the actual owner. *)
let classify st ~id ~allowed ~base ~len ~mk =
  let offending =
    Region.Set.diff
      (Region.Set.of_list [ Region.make ~base ~len ])
      allowed
  in
  Region.Set.iter
    (fun r ->
      let actual = shadow_owner st r.Region.base in
      match actual with
      | Owner.Enclave j when j = id ->
          (* Owned by the accessor but not (yet) blessed: a transient
             bookkeeping window, not an isolation breach. *)
          ()
      | Owner.Free -> report st (mk r Freed_access)
      | actual -> report st (mk r (Cross_owner { actual })))
    offending

let access ~mem_uid ~cpu ~owner ~base ~len ~access:(_ : access) =
  match (dls ()).st with
  | Some st when st.mem_uid = mem_uid -> (
      match owner with
      | Owner.Enclave id -> (
          match Hashtbl.find_opt st.allowed id with
          | None -> ()  (* not a controller-managed enclave *)
          | Some allowed ->
              st.accesses <- st.accesses + 1;
              if not (Region.Set.mem_range allowed ~base ~len) then
                classify st ~id ~allowed ~base ~len ~mk:(fun r kind ->
                    {
                      owner;
                      enclave = id;
                      cpu;
                      addr = r.Region.base;
                      len = r.Region.len;
                      kind;
                      source = Access;
                    }))
      | _ -> ())
  | _ -> ()

let ept_write ~ept_uid ~base ~len ~present =
  with_state (fun st ->
      st.ept_writes <- st.ept_writes + 1;
      if present then
        match Hashtbl.find_opt st.epts ept_uid with
        | None -> ()
        | Some id -> (
            match Hashtbl.find_opt st.allowed id with
            | None -> ()
            | Some allowed ->
                if not (Region.Set.mem_range allowed ~base ~len) then
                  let mk r kind =
                    let kind =
                      match kind with
                      | Cross_owner { actual } | Corrupt_mapping { actual } ->
                          Corrupt_mapping { actual }
                      | Freed_access -> Corrupt_mapping { actual = Owner.Free }
                    in
                    {
                      owner = Owner.Enclave id;
                      enclave = id;
                      cpu = -1;
                      addr = r.Region.base;
                      len = r.Region.len;
                      kind;
                      source = Ept_write;
                    }
                  in
                  classify st ~id ~allowed ~base ~len ~mk))

let tlb_install (_ : Addr.t) ~page_size:(_ : int) =
  with_state (fun st -> st.tlb_installs <- st.tlb_installs + 1)

(* --- introspection --------------------------------------------------- *)

let violations () =
  match (dls ()).st with Some st -> List.rev st.violations | None -> []

let violation_count () = (dls ()).total

let stats () =
  match (dls ()).st with
  | Some st ->
      {
        accesses = st.accesses;
        ept_writes = st.ept_writes;
        tlb_installs = st.tlb_installs;
      }
  | None -> { accesses = 0; ept_writes = 0; tlb_installs = 0 }

let active () = !on
