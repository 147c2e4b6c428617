(* Host-time span recorder for the traced run.

   Spans are recorded from the benchmark's side of each call into the
   program, so the program itself carries no tracing.  Everything is
   preallocated; with [on] false a span costs one branch.  Each span
   has a name, host start/end in ns, a parent index and an op id, and
   spans nest through an explicit stack, so a layer's self time is its
   duration minus the time covered by its children. *)

(* CLOCK_MONOTONIC in ns; unboxed and allocation-free. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type call =
  | Launch
  | Destroy
  | Fault_contain
  | Work
  | Export
  | Reclaim
  | Attach
  | Detach
  | Grant
  | Revoke
  | Add_memory
  | Remove_memory
  | Verify
  | Ipc_send
  | Syscall
  | Stream
  | Gups
  | Hpcg
  | Lammps

let all =
  [|
    Launch; Destroy; Fault_contain; Work; Export; Reclaim; Attach; Detach;
    Grant; Revoke; Add_memory; Remove_memory; Verify; Ipc_send; Syscall;
    Stream; Gups; Hpcg; Lammps;
  |]

let name = function
  | Launch -> "hobbes.launch"
  | Destroy -> "pisces.destroy"
  | Fault_contain -> "pisces.fault_contain"
  | Work -> "kitten.work"
  | Export -> "xemem.export"
  | Reclaim -> "xemem.reclaim"
  | Attach -> "xemem.attach"
  | Detach -> "xemem.detach"
  | Grant -> "hobbes.grant"
  | Revoke -> "pisces.revoke"
  | Add_memory -> "pisces.add_memory"
  | Remove_memory -> "pisces.remove_memory"
  | Verify -> "analysis.verify"
  | Ipc_send -> "hobbes.ipc_send"
  | Syscall -> "kitten.syscall"
  | Stream -> "workloads.stream"
  | Gups -> "workloads.gups"
  | Hpcg -> "workloads.hpcg"
  | Lammps -> "workloads.lammps"

let index c =
  let rec find i = if all.(i) == c then i else find (i + 1) in
  find 0

let ncalls = Array.length all
let on = ref false

(* Simulated clock of the op in flight (host TSC plus the cores the op
   runs on); workloads point it at their node when a pass starts. *)
let clock : (unit -> int) ref = ref (fun () -> 0)

(* Set while the timed phase runs: top-level spans then count toward
   the coverage of [wall_s]. *)
let timed = ref false
let op_id = ref 0

(* Open-span stack. *)
let max_depth = 16
let st_call = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_s0 = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_slot = Array.make max_depth 0
let depth = ref 0

(* Chrome-trace buffer: the first [capacity] spans of the run. *)
let capacity = 1 lsl 17
let tr_call = Array.make capacity 0
let tr_t0 = Array.make capacity 0
let tr_t1 = Array.make capacity 0
let tr_parent = Array.make capacity 0
let tr_op = Array.make capacity 0
let tr_n = ref 0
let dropped = ref 0

(* Per-call aggregates over every traced pass. *)
let count = Array.make ncalls 0
let self_ns = Array.make ncalls 0
let durs = Array.init ncalls (fun _ -> Ints.create ())
let sims = Array.init ncalls (fun _ -> Ints.create ())
let top_ns = ref 0

let enter c =
  let d = !depth in
  if d = max_depth then failwith "Recorder: spans nested too deep";
  let ci = index c in
  let t0 = now_ns () in
  st_call.(d) <- ci;
  st_t0.(d) <- t0;
  st_s0.(d) <- !clock ();
  st_child.(d) <- 0;
  (if !tr_n < capacity then begin
     let i = !tr_n in
     incr tr_n;
     tr_call.(i) <- ci;
     tr_t0.(i) <- t0;
     tr_t1.(i) <- t0;
     tr_parent.(i) <- (if d = 0 then -1 else st_slot.(d - 1));
     tr_op.(i) <- !op_id;
     st_slot.(d) <- i
   end
   else begin
     incr dropped;
     st_slot.(d) <- -1
   end);
  depth := d + 1

let leave () =
  let t1 = now_ns () in
  let s1 = !clock () in
  let d = !depth - 1 in
  depth := d;
  let c = st_call.(d) in
  let dur = t1 - st_t0.(d) in
  count.(c) <- count.(c) + 1;
  self_ns.(c) <- self_ns.(c) + dur - st_child.(d);
  Ints.push durs.(c) dur;
  Ints.push sims.(c) (s1 - st_s0.(d));
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur
  else if !timed then top_ns := !top_ns + dur;
  if st_slot.(d) >= 0 then tr_t1.(st_slot.(d)) <- t1

let span c f =
  if !on then begin
    enter c;
    let r = f () in
    leave ();
    r
  end
  else f ()

(* Every recorded span lies inside its parent, which was opened
   before it. *)
let spans_nest () =
  let ok = ref (!depth = 0) in
  for i = 0 to !tr_n - 1 do
    let p = tr_parent.(i) in
    if tr_t1.(i) < tr_t0.(i) then ok := false;
    if p >= 0 && (p >= i || tr_t0.(i) < tr_t0.(p) || tr_t1.(i) > tr_t1.(p))
    then ok := false
  done;
  !ok

let write_chrome_trace path =
  let oc = open_out path in
  let base = if !tr_n > 0 then tr_t0.(0) else 0 in
  let us t = float_of_int (t - base) /. 1000. in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to !tr_n - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d}}"
      (name all.(tr_call.(i)))
      (us tr_t0.(i))
      (float_of_int (tr_t1.(i) - tr_t0.(i)) /. 1000.)
      i tr_parent.(i) tr_op.(i)
  done;
  Printf.fprintf oc "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%d}}\n"
    !dropped;
  close_out oc
