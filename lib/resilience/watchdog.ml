open Covirt_hw
open Covirt_pisces

(* Per-enclave progress snapshot.  [s_incarnation] ties it to one
   launch of the enclave; a relaunch resets the grace period. *)
type snap = {
  s_incarnation : int;
  mutable s_sig : int * int;  (* (vm exits, enclave->host messages) *)
  mutable s_progress_tsc : int;  (* host TSC of the last advance *)
  mutable s_stalled : int;  (* cycles stalled as of the last poll *)
}

type t = {
  sup : Supervisor.t;
  snaps : (string, snap) Hashtbl.t;
}

let create sup = { sup; snaps = Hashtbl.create 4 }

(* The progress signature: anything a live kernel does shows up either
   as a VM exit (timer tick, emulation, command drain) or as traffic
   on the Pisces control channel (syscall forwarding, console,
   heartbeat).  Both are visible from the host without touching the
   enclave. *)
let signature t (enclave : Enclave.t) =
  let exits =
    match
      Covirt.Controller.instance_for
        (Supervisor.controller t.sup)
        ~enclave_id:enclave.Enclave.id
    with
    | None -> 0 (* unprotected: only the channel signal remains *)
    | Some inst ->
        List.fold_left
          (fun acc (_, hv) ->
            acc + (Covirt.Hypervisor.vmcs hv).Vmcs.stats.Vmcs.exits_total)
          0 inst.Covirt.Controller.hypervisors
  in
  (exits, Ctrl_channel.enclave_messages_sent enclave.Enclave.channel)

let now t =
  Cpu.rdtsc (Pisces.host_cpu (Covirt.Controller.pisces (Supervisor.controller t.sup)))

(* Health-monitoring observability: how often the watchdog looked, and
   how often it had to pull the trigger. *)
let m_polls = lazy Covirt_obs.Metrics.(unlabeled (counter "watchdog.polls"))

let m_escalations =
  lazy Covirt_obs.Metrics.(unlabeled (counter "watchdog.escalations"))

let poll t =
  if !Covirt_obs.Metrics.on then
    Covirt_obs.Metrics.add (Lazy.force m_polls) 1;
  let deadline = (Supervisor.policy t.sup).Supervisor.watchdog_deadline in
  let tsc = now t in
  List.filter
    (fun name ->
      match
        (Supervisor.status t.sup ~name, Supervisor.enclave t.sup ~name)
      with
      | Supervisor.Quarantined _, _ | _, None ->
          Hashtbl.remove t.snaps name;
          false
      | Supervisor.Healthy, Some enclave -> (
          let incarnation = Supervisor.incarnation t.sup ~name in
          let current = signature t enclave in
          let snap =
            match Hashtbl.find_opt t.snaps name with
            | Some s when s.s_incarnation = incarnation -> s
            | _ ->
                (* First sight of this incarnation: full grace period. *)
                let s =
                  {
                    s_incarnation = incarnation;
                    s_sig = current;
                    s_progress_tsc = tsc;
                    s_stalled = 0;
                  }
                in
                Hashtbl.replace t.snaps name s;
                s
          in
          if current <> snap.s_sig then begin
            snap.s_sig <- current;
            snap.s_progress_tsc <- tsc;
            snap.s_stalled <- 0;
            false
          end
          else begin
            snap.s_stalled <- tsc - snap.s_progress_tsc;
            if snap.s_stalled < deadline then false
            else begin
              let exits, msgs = current in
              if !Covirt_obs.Metrics.on then
                Covirt_obs.Metrics.add (Lazy.force m_escalations) 1;
              Supervisor.escalate_wedged t.sup ~name
                ~detail:
                  (Printf.sprintf
                     "no progress for %d cycles (deadline %d): stuck at %d VM \
                      exits, %d channel messages"
                     snap.s_stalled deadline exits msgs);
              Hashtbl.remove t.snaps name;
              true
            end
          end))
    (Supervisor.names t.sup)
