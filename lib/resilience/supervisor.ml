open Covirt_hw
open Covirt_pisces
open Covirt_kitten

type policy = {
  max_restarts : int;
  backoff_base : int;
  backoff_factor : int;
  backoff_cap : int;
  stability_window : int;
  watchdog_deadline : int;
}

(* A handful of restarts with exponential backoff starting at 100k
   cycles (~40 µs at 2.4 GHz) capped at ~10 ms, and a watchdog deadline
   of 5M cycles of silence. *)
let default_policy =
  {
    max_restarts = 5;
    backoff_base = 100_000;
    backoff_factor = 2;
    backoff_cap = 25_000_000;
    stability_window = 50_000_000;
    watchdog_deadline = 5_000_000;
  }

type event_kind =
  | Fault_detected of string
  | Wedge_detected of string
  | Torn_down
  | Backing_off of { cycles : int; attempt : int }
  | Relaunched of { enclave_id : int }
  | Relaunch_failed of string
  | Quarantine of string

type event = { tsc : int; name : string; incarnation : int; kind : event_kind }

let pp_event ppf e =
  let pp_kind ppf = function
    | Fault_detected why -> Format.fprintf ppf "fault detected: %s" why
    | Wedge_detected why -> Format.fprintf ppf "wedge detected: %s" why
    | Torn_down -> Format.pp_print_string ppf "torn down"
    | Backing_off { cycles; attempt } ->
        Format.fprintf ppf "backing off %d cycles (attempt %d)" cycles attempt
    | Relaunched { enclave_id } ->
        Format.fprintf ppf "relaunched as enclave %d" enclave_id
    | Relaunch_failed why -> Format.fprintf ppf "relaunch failed: %s" why
    | Quarantine why -> Format.fprintf ppf "quarantined: %s" why
  in
  Format.fprintf ppf "@[<h>[%d] %s#%d: %a@]" e.tsc e.name e.incarnation pp_kind
    e.kind

type status = Healthy | Quarantined of string

type managed = {
  m_name : string;
  launch : unit -> (Enclave.t * Kitten.t, string) result;
  mutable enclave : Enclave.t option;
  mutable kitten : Kitten.t option;
  mutable attempts : int;  (* restarts consumed since last reset *)
  mutable incarnation : int;
  mutable quarantined : string option;
  mutable relaunched_at : int;  (* host TSC of the latest launch *)
}

type t = {
  ctrl : Covirt.Controller.t;
  pol : policy;
  rng : Covirt_sim.Rng.t;
  mutable managed : (string * managed) list;  (* registration order *)
  mutable events : event list;  (* newest first *)
  mutable ledger : (string * string) list;  (* quarantine order *)
  mutable quarantine_hook : name:string -> why:string -> string option;
      (* archival callback run at the moment the breaker trips *)
  mutable captures : (string * string) list;  (* (name, archive path) *)
  pending : (int, Covirt.Fault_report.t) Hashtbl.t;
      (* latest fatal report per enclave id: the "why" of a recovery *)
}

let controller t = t.ctrl
let policy t = t.pol
let host_cpu t = Pisces.host_cpu (Covirt.Controller.pisces t.ctrl)
let now t = Cpu.rdtsc (host_cpu t)

let create ?(policy = default_policy) ~seed ctrl =
  let t =
    {
      ctrl;
      pol = policy;
      rng = Covirt_sim.Rng.create ~seed;
      managed = [];
      events = [];
      ledger = [];
      quarantine_hook = (fun ~name:_ ~why:_ -> None);
      captures = [];
      pending = Hashtbl.create 4;
    }
  in
  Covirt.subscribe ctrl (fun r ->
      if r.Covirt.Fault_report.fatal then
        Hashtbl.replace t.pending r.Covirt.Fault_report.enclave r);
  t

let find t name = List.assoc_opt name t.managed

let find_exn t name =
  match find t name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Supervisor: %S is not managed" name)

let event_tag = function
  | Fault_detected _ -> "fault-detected"
  | Wedge_detected _ -> "wedge-detected"
  | Torn_down -> "torn-down"
  | Backing_off _ -> "backing-off"
  | Relaunched _ -> "relaunched"
  | Relaunch_failed _ -> "relaunch-failed"
  | Quarantine _ -> "quarantine"

(* Recovery events feed the observability layer: a per-kind counter and
   an instant on the host track (pid 0 — supervision is host work). *)
let m_events = lazy (Covirt_obs.Metrics.counter "supervisor.events")

let push t m kind =
  let tsc = now t in
  (if !Covirt_obs.Metrics.on || !Covirt_obs.Exporter.on then
     let tag = event_tag kind in
     if !Covirt_obs.Metrics.on then
       Covirt_obs.Metrics.add
         (Covirt_obs.Metrics.cell (Lazy.force m_events)
            { Covirt_obs.Metrics.no_label with dim = tag })
         1;
     if !Covirt_obs.Exporter.on then
       Covirt_obs.Span.instant
         ~name:("supervisor:" ^ tag)
         ~cat:"supervision"
         ~args:
           [
             ("managed", m.m_name);
             ("incarnation", string_of_int m.incarnation);
           ]
         ~pid:0
         ~tid:(host_cpu t).Cpu.id ~ts:tsc ());
  t.events <-
    { tsc; name = m.m_name; incarnation = m.incarnation; kind } :: t.events

let manage t ~name ~launch =
  if find t name <> None then
    invalid_arg (Printf.sprintf "Supervisor.manage: %S already managed" name);
  let m =
    {
      m_name = name;
      launch;
      enclave = None;
      kitten = None;
      attempts = 0;
      incarnation = 0;
      quarantined = None;
      relaunched_at = 0;
    }
  in
  match launch () with
  | Error _ as e -> e
  | Ok (enclave, kitten) as ok ->
      m.enclave <- Some enclave;
      m.kitten <- Some kitten;
      m.relaunched_at <- now t;
      t.managed <- t.managed @ [ (name, m) ];
      ok

(* The fault report that explains why this enclave went down, consumed
   from the subscription feed. *)
let consume_pending t enclave_id =
  match Hashtbl.find_opt t.pending enclave_id with
  | Some r ->
      Hashtbl.remove t.pending enclave_id;
      Some r
  | None -> None

let backoff_delay t ~attempt =
  let rec grow d n =
    if n <= 1 then d else grow (min t.pol.backoff_cap (d * t.pol.backoff_factor)) (n - 1)
  in
  let base = grow t.pol.backoff_base attempt in
  base + Covirt_sim.Rng.int t.rng ~bound:(max 1 (t.pol.backoff_base / 8))

let quarantine t m ~cause =
  let why =
    Printf.sprintf "restart budget exhausted (%d/%d restarts); last fault: %s"
      m.attempts t.pol.max_restarts cause
  in
  m.quarantined <- Some why;
  m.enclave <- None;
  m.kitten <- None;
  push t m (Quarantine why);
  t.ledger <- t.ledger @ [ (m.m_name, why) ];
  (* Archive while the wreckage is fresh: the hook runs before the
     caller learns of the quarantine, so a recorder's trailing window
     still holds the exits that led here. *)
  (match t.quarantine_hook ~name:m.m_name ~why with
  | Some path -> t.captures <- t.captures @ [ (m.m_name, path) ]
  | None -> ());
  why

(* Relaunch with exponential backoff until a launch sticks or the
   circuit breaker trips.  The waiting is simulated time, charged to
   the host control core — recovery is host work. *)
let rec relaunch t m ~cause =
  if m.attempts >= t.pol.max_restarts then `Quarantined (quarantine t m ~cause)
  else begin
    m.attempts <- m.attempts + 1;
    let delay = backoff_delay t ~attempt:m.attempts in
    push t m (Backing_off { cycles = delay; attempt = m.attempts });
    Cpu.charge (host_cpu t) delay;
    match m.launch () with
    | Ok (enclave, kitten) ->
        m.enclave <- Some enclave;
        m.kitten <- Some kitten;
        m.incarnation <- m.incarnation + 1;
        m.relaunched_at <- now t;
        push t m (Relaunched { enclave_id = enclave.Enclave.id });
        `Recovered
    | Error why ->
        push t m (Relaunch_failed why);
        relaunch t m ~cause
  end

(* Halt a still-running (wedged) enclave through the per-core command
   queues: a halt command followed by the NMI doorbell makes each
   hypervisor kill its core on the drain; then Pisces reclaims the
   partition (firing the destroy hook, which unmaps the EPT and
   archives the whitelist). *)
let teardown_wedged t (enclave : Enclave.t) ~reason =
  let pisces = Covirt.Controller.pisces t.ctrl in
  let machine = Pisces.machine pisces in
  (match
     Covirt.Controller.instance_for t.ctrl ~enclave_id:enclave.Enclave.id
   with
  | Some inst ->
      List.iter
        (fun (core, hv) ->
          let queue = Covirt.Hypervisor.queue hv in
          (match Covirt.Command.enqueue queue Covirt.Command.Halt_core with
          | Ok () -> ()
          | Error _ ->
              (* Ring full: drain by NMI first, then the halt fits. *)
              (try Machine.post_host_nmi machine ~dest:core
               with Vmx.Vm_terminated _ -> ());
              ignore (Covirt.Command.enqueue queue Covirt.Command.Halt_core));
          try Machine.post_host_nmi machine ~dest:core
          with Vmx.Vm_terminated _ -> ())
        inst.Covirt.Controller.hypervisors
  | None -> ());
  if Enclave.is_running enclave then Pisces.reclaim_crashed pisces enclave ~reason

let stability_reset t m =
  if m.attempts > 0 && now t - m.relaunched_at >= t.pol.stability_window then
    m.attempts <- 0

let run_protected t ~name f =
  let m = find_exn t name in
  match m.quarantined with
  | Some why -> `Quarantined why
  | None -> (
      match (m.enclave, m.kitten) with
      | Some enclave, Some kitten -> (
          stability_reset t m;
          let ctx = Kitten.context kitten ~core:(Enclave.bsp enclave) in
          let pisces = Covirt.Controller.pisces t.ctrl in
          match Pisces.run_guarded pisces (fun () -> f ctx) with
          | Ok () -> `Ok
          | Error crash ->
              (* run_guarded already reclaimed the partition. *)
              let cause =
                match consume_pending t crash.Pisces.enclave_id with
                | Some r ->
                    Format.asprintf "%s on cpu %d (%s)"
                      (Covirt.Fault_report.kind_name r.Covirt.Fault_report.kind)
                      r.Covirt.Fault_report.cpu
                      r.Covirt.Fault_report.detail
                | None -> crash.Pisces.reason
              in
              push t m (Fault_detected cause);
              push t m Torn_down;
              m.enclave <- None;
              m.kitten <- None;
              relaunch t m ~cause)
      | _ -> `Quarantined "not running")

let escalate_wedged t ~name ~detail =
  let m = find_exn t name in
  match (m.quarantined, m.enclave) with
  | Some _, _ | _, None -> ()
  | None, Some enclave ->
      stability_reset t m;
      Covirt.Controller.record_report t.ctrl
        {
          Covirt.Fault_report.enclave = enclave.Enclave.id;
          cpu = Enclave.bsp enclave;
          tsc = now t;
          kind = Covirt.Fault_report.Watchdog_timeout;
          fatal = true;
          detail;
        };
      push t m (Wedge_detected detail);
      teardown_wedged t enclave ~reason:("watchdog: " ^ detail);
      push t m Torn_down;
      m.enclave <- None;
      m.kitten <- None;
      Hashtbl.remove t.pending enclave.Enclave.id;
      ignore (relaunch t m ~cause:detail)

(* ------------------------------------------------------------------ *)
(* Introspection.                                                      *)

let names t = List.map fst t.managed
let enclave t ~name = Option.bind (find t name) (fun m -> m.enclave)
let kitten t ~name = Option.bind (find t name) (fun m -> m.kitten)

let status t ~name =
  match (find_exn t name).quarantined with
  | None -> Healthy
  | Some why -> Quarantined why

let attempts t ~name = (find_exn t name).attempts
let incarnation t ~name = (find_exn t name).incarnation
let timeline t = List.rev t.events
let quarantine_ledger t = t.ledger
let set_quarantine_hook t hook = t.quarantine_hook <- hook
let captures t = t.captures
