(* The coverage map: a fixed, compact bitset over the behaviour edges
   a trial can exercise — (exit-reason arm x handler outcome), EPT
   walk-branch classes, injected fault classes, sanitizer violation
   kinds, planted/detected corruption classes, trial outcomes and the
   multi-enclave/XEMEM surface.  The fuzzer uses it as guidance: a
   mutant whose map contains an edge the corpus has never seen is
   promoted.

   Collection subscribes to the hw and fault-injector probe points;
   each subscriber is a Domain-local bit store, so it keeps the
   [Covirt_obs.Probe] contract with no allocation either.

   A captured map is an immutable [string], so structural equality on
   fuzz results keeps working and maps can be unioned/compared without
   defensive copies. *)

open Covirt_hw
module Fault_injector = Covirt_resilience.Fault_injector

(* --- edge layout ----------------------------------------------------- *)

(* Dense, stable bit indices.  Derived from the hw-layer arm counts so
   adding an exit reason or fault class grows the map instead of
   silently aliasing; the corpus entry format stores the map size, so
   a layout change invalidates old entries loudly (typed decode
   error), never quietly. *)

let outcome_arms = 3 (* resume / skip / kill *)
let exit_base = 0
let exit_edges = Vmcs.exit_reason_arms * outcome_arms
let ept_base = exit_base + exit_edges
let ept_edges = 7
let fault_base = ept_base + ept_edges
let fault_edges = 7
let san_base = fault_base + fault_edges
let san_edges = 3
let planted_base = san_base + san_edges
let planted_edges = 4
let detected_base = planted_base + planted_edges
let detected_edges = 4
let outcome_base = detected_base + detected_edges
let outcome_edges = 3
let crash_bit = outcome_base + outcome_edges
let xemem_base = crash_bit + 1
let xemem_edges = 4
let spawn_base = xemem_base + xemem_edges
let spawn_edges = 2
let soak_bit = spawn_base + spawn_edges
let total = soak_bit + 1
let bytes_len = (total + 7) / 8

(* --- the immutable map ----------------------------------------------- *)

type t = string

let empty = String.make bytes_len '\000'
let equal = String.equal
let mem t i = Char.code t.[i lsr 3] land (1 lsl (i land 7)) <> 0

let count t =
  let n = ref 0 in
  String.iter
    (fun c ->
      let b = ref (Char.code c) in
      while !b <> 0 do
        b := !b land (!b - 1);
        incr n
      done)
    t;
  !n

let union a b =
  String.init bytes_len (fun i ->
      Char.chr (Char.code a.[i] lor Char.code b.[i]))

let new_edges t ~base =
  let n = ref 0 in
  for i = 0 to total - 1 do
    if mem t i && not (mem base i) then incr n
  done;
  !n

let subset t ~of_ =
  let ok = ref true in
  String.iteri
    (fun i c -> if Char.code c land lnot (Char.code of_.[i]) <> 0 then ok := false)
    t;
  !ok

let to_bytes t = t

let of_bytes s =
  if String.length s <> bytes_len then
    Error
      (Printf.sprintf "coverage map is %d bytes, expected %d" (String.length s)
         bytes_len)
  else Ok s

(* --- edge names ------------------------------------------------------ *)

let outcome_names = [| "resume"; "skip"; "kill" |]

let ept_names =
  [|
    "walk-hit"; "walk-fill"; "walk-uncached"; "pt-slot-hit"; "pt-slot-fill";
    "viol-not-mapped"; "viol-perm";
  |]

let fault_names =
  [|
    "wild-write"; "phantom-touch"; "errant-ipi"; "msr-write"; "port-reset";
    "double-fault"; "wedge";
  |]

let san_names = [| "cross-owner"; "freed-access"; "corrupt-mapping" |]
let corruption_names = [| "cross-owner"; "free-map"; "stale-grant"; "freed-access" |]
let trial_outcome_names = [| "survived"; "node-down"; "collateral" |]
let xemem_names = [| "attach-ok"; "attach-err"; "detach-ok"; "detach-err" |]
let spawn_names = [| "spawn-ok"; "spawn-noop" |]

let edge_name i =
  if i < 0 || i >= total then invalid_arg "Coverage.edge_name"
  else if i < ept_base then
    Printf.sprintf "exit:%s/%s"
      Vmcs.exit_reason_names.(i / outcome_arms)
      outcome_names.(i mod outcome_arms)
  else if i < fault_base then "ept:" ^ ept_names.(i - ept_base)
  else if i < san_base then "fault:" ^ fault_names.(i - fault_base)
  else if i < planted_base then "san:" ^ san_names.(i - san_base)
  else if i < detected_base then "planted:" ^ corruption_names.(i - planted_base)
  else if i < outcome_base then "detected:" ^ corruption_names.(i - detected_base)
  else if i < crash_bit then "outcome:" ^ trial_outcome_names.(i - outcome_base)
  else if i = crash_bit then "crash"
  else if i < spawn_base then "xemem:" ^ xemem_names.(i - xemem_base)
  else if i < soak_bit then "spawn:" ^ spawn_names.(i - spawn_base)
  else "soak-scenario"

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>%d/%d edges:" (count t) total;
  for i = 0 to total - 1 do
    if mem t i then Format.fprintf ppf "@ %s" (edge_name i)
  done;
  Format.fprintf ppf "@]"

(* --- collection ------------------------------------------------------ *)

type dls = { mutable collecting : bool; map : Bytes.t }

let dls_key =
  Domain.DLS.new_key (fun () ->
      { collecting = false; map = Bytes.make bytes_len '\000' })

let dls () = Domain.DLS.get dls_key

(* The hot store.  Unsafe accesses are in-bounds by construction: every
   caller passes a constant-offset code the hw layer bounds. *)
let mark d i =
  let byte = Char.code (Bytes.unsafe_get d.map (i lsr 3)) in
  Bytes.unsafe_set d.map (i lsr 3)
    (Char.unsafe_chr (byte lor (1 lsl (i land 7))))

let fault_code = function
  | Fault_injector.Wild_write _ -> 0
  | Fault_injector.Phantom_touch _ -> 1
  | Fault_injector.Errant_ipi _ -> 2
  | Fault_injector.Msr_write -> 3
  | Fault_injector.Port_reset -> 4
  | Fault_injector.Double_fault -> 5
  | Fault_injector.Wedge _ -> 6

let san_code = function
  | Sanitize.Cross_owner _ -> 0
  | Sanitize.Freed_access -> 1
  | Sanitize.Corrupt_mapping _ -> 2

let action_code = function Vmcs.Resume -> 0 | Vmcs.Skip -> 1 | Vmcs.Kill _ -> 2

let () =
  let module P = Covirt_obs.Probe in
  P.subscribe Vmx.exit_edge (fun code action ->
      let d = dls () in
      if d.collecting then
        mark d (exit_base + (code * outcome_arms) + action_code action));
  P.subscribe Ept.walk (fun cls () ->
      let d = dls () in
      if d.collecting then mark d (ept_base + cls));
  P.subscribe Sanitize.violated (fun kind () ->
      let d = dls () in
      if d.collecting then mark d (san_base + san_code kind));
  P.subscribe Fault_injector.applied (fun fault () ->
      let d = dls () in
      if d.collecting then mark d (fault_base + fault_code fault))

let collecting () = (dls ()).collecting

let arm () =
  let d = dls () in
  if not d.collecting then begin
    d.collecting <- true;
    Bytes.fill d.map 0 bytes_len '\000';
    Covirt_obs.Probe.arm ()
  end

let disarm () =
  let d = dls () in
  if d.collecting then begin
    d.collecting <- false;
    Bytes.fill d.map 0 bytes_len '\000';
    Covirt_obs.Probe.disarm ()
  end

let capture () =
  let d = dls () in
  let snap = Bytes.to_string d.map in
  Bytes.fill d.map 0 bytes_len '\000';
  snap

(* --- scenario-layer hits --------------------------------------------- *)

(* These are called from [Scenario]/[Replayer] (which sit above this
   module), not through the probe bus, so they gate on the domain's own
   [collecting] flag directly. *)

let hit d i = if d.collecting then mark d i

let corruption_code = function
  | Trace.Cross_owner -> 0
  | Trace.Free_map -> 1
  | Trace.Stale_grant -> 2
  | Trace.Freed_access -> 3

let hit_planted cls = hit (dls ()) (planted_base + corruption_code cls)
let hit_detected cls = hit (dls ()) (detected_base + corruption_code cls)

let hit_outcome o =
  hit (dls ())
    (outcome_base
    + match o with `Survived -> 0 | `Node_down -> 1 | `Collateral -> 2)

let hit_crash () = hit (dls ()) crash_bit

let hit_xemem ~attach ~ok =
  hit (dls ())
    (xemem_base + (if attach then 0 else 2) + if ok then 0 else 1)

let hit_spawn ~ok = hit (dls ()) (spawn_base + if ok then 0 else 1)
let hit_soak () = hit (dls ()) soak_bit
