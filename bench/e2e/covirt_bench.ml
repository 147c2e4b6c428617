(* covirt_bench: the end-to-end benchmark (see README.md).

     covirt_bench run --workload W [--seed S] [--seconds N] [--trace 0|1]
                      [--trace-out DIR] [--json FILE] [--smoke] [--break-check]
     covirt_bench compare DIR_A DIR_B
     covirt_bench smoke BENCHMARK.json

   [run] repeats passes of one workload for [--seconds] and prints every
   metric by name with its unit; its last stdout line is one JSON
   object.  A failed output check makes it exit 1. *)

module S = Scenarios
module R = Recorder
module Metrics = Covirt_obs.Metrics
module Stats = Covirt_sim.Stats

let now_ns = R.now_ns

(* ------------------------------------------------------------------ *)
(* Metric names and units.                                             *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("host_op_p50_us", "us");
    ("host_op_p99_us", "us");
    ("peak_rss_mb", "MiB");
    ("sim_op_p50_ns", "sim_ns");
    ("sim_op_p99_ns", "sim_ns");
    ("sim_overhead_pct", "%");
  ]

let call_suffixes =
  [
    ("count", "count");
    ("host_s", "s");
    ("host_us_p50", "us");
    ("host_us_p99", "us");
    ("sim_ns_p50", "sim_ns");
  ]

(* Obs-registry counters read by the traced run: (metric, registry
   family). *)
let counters =
  [
    ("hw.tlb.flush", "tlb.flush");
    ("hw.ept.entry_writes", "ept.entry_writes");
    ("core.vmexit.count", "vmexit.count");
    ("core.ipi_filter.count", "ipi.filter");
    ("core.tlb_shootdown.count", "hv.tlb_shootdown");
    ("core.emulation.count", "hv.emulation");
    ("core.fault_report.count", "fault.report");
  ]

let per_layer =
  List.concat_map
    (fun c -> List.map (fun (s, u) -> (R.name c ^ "." ^ s, u)) call_suffixes)
    (Array.to_list R.all)
  @ [
      ("hw.tlb.lookups", "count");
      ("hw.tlb.hit_ratio", "ratio");
      ("hw.ept.walk_hit_ratio", "ratio");
      ("hw.charge_memo.hit_ratio", "ratio");
    ]
  @ List.map (fun (m, _) -> (m, "count")) counters
  @ [ ("trace_overhead_pct", "%") ]

let is_sim name = String.length name >= 4 && String.sub name 0 4 = "sim_"

(* ------------------------------------------------------------------ *)
(* run                                                                  *)

type opts = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  trace_out : string;
  json : string option;
  smoke : bool;
  sabotage : bool;
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  let v = scan () in
  close_in ic;
  v

let median f passes = Stats.percentile (Array.of_list (List.map f passes)) ~p:50.

(* Host noise on a shared machine only ever slows a pass down, so the
   fastest measured pass is the steadiest estimate (the repo's
   microbenches use the same best-of-N floor). *)
let best f passes = List.fold_left (fun acc p -> Float.min acc (f p)) infinity passes
let seconds ns = float_of_int ns /. 1e9

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf {|"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}|} correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|%s:{"value":%s,"unit":%s}|} (Json.quote name)
              (Json.number v) (Json.quote unit))
          metrics))

(* What a run keeps of a pass.  Samples are reduced as soon as the
   pass ends, so memory does not grow with the number of passes. *)
type summary = {
  setup_s : float;
  wall_s : float;
  host_p50_us : float;
  host_p99_us : float;
  sim_p50_ns : float;
  sim_p99_ns : float;
  sim_total : int;
  ops : int;
  ghz : float;
  fingerprint : Digest.t;
  overheads : (string * float) list;
  memo : int * int;
  audit : S.audit;
}

(* Contention bursts on a shared host slow some stretches of a pass and
   not others, and a tail percentile magnifies them.  So a pass's host
   percentile is the median, over consecutive windows of 1000 ops (10
   samples beyond the p99), of each window's percentile. *)
let windowed_quantile host =
  let n = Ints.length host in
  let nw = max 1 (n / 1000) in
  let windows =
    Array.init nw (fun k ->
        let lo = k * n / nw and hi = (k + 1) * n / nw in
        let a = Array.init (hi - lo) (fun i -> Ints.get host (lo + i)) in
        Array.sort compare a;
        a)
  in
  fun q ->
    Stats.percentile (Array.map (fun w -> float_of_int (Ints.quantile_sorted w q)) windows) ~p:50.

let summarize (p : S.pass) =
  let sim = Ints.sorted p.S.sim in
  let host_ns = windowed_quantile p.S.host in
  let ns q = float_of_int (Ints.quantile_sorted sim q) /. p.S.ghz in
  {
    setup_s = seconds p.S.setup_ns;
    wall_s = seconds p.S.wall_ns;
    host_p50_us = host_ns 50. /. 1e3;
    host_p99_us = host_ns 99. /. 1e3;
    sim_p50_ns = ns 50.;
    sim_p99_ns = ns 99.;
    sim_total = Ints.sum p.S.sim;
    ops = Ints.length p.S.host;
    ghz = p.S.ghz;
    fingerprint = p.S.fingerprint;
    overheads = p.S.overheads;
    memo = p.S.memo;
    audit = p.S.audit;
  }

let layer_metrics ~passes ~untraced ~counters_snap =
  let np = float_of_int (List.length passes) in
  let ghz = (List.hd passes).ghz in
  let calls =
    List.concat
      (List.mapi
         (fun i c ->
           let durs = Ints.sorted R.durs.(i) and sims = Ints.sorted R.sims.(i) in
           let name = R.name c in
           [
             (name ^ ".count", float_of_int R.count.(i) /. np);
             (name ^ ".host_s", seconds R.self_ns.(i) /. np);
             (name ^ ".host_us_p50", float_of_int (Ints.quantile_sorted durs 50.) /. 1e3);
             (name ^ ".host_us_p99", float_of_int (Ints.quantile_sorted durs 99.) /. 1e3);
             (name ^ ".sim_ns_p50", float_of_int (Ints.quantile_sorted sims 50.) /. ghz);
           ])
         (Array.to_list R.all))
  in
  let total name = float_of_int (Metrics.total_counter counters_snap name) in
  let ratio h m = if h +. m = 0. then 0. else h /. (h +. m) in
  let memo_h, memo_m =
    List.fold_left (fun (h, m) p -> (h + fst p.memo, m + snd p.memo)) (0, 0) passes
  in
  let wall ps = best (fun p -> p.wall_s) ps in
  calls
  @ [
      ("hw.tlb.lookups", (total "tlb.lookup.hit" +. total "tlb.lookup.miss") /. np);
      ("hw.tlb.hit_ratio", ratio (total "tlb.lookup.hit") (total "tlb.lookup.miss"));
      ("hw.ept.walk_hit_ratio", ratio (total "ept.walk.hit") (total "ept.walk.miss"));
      ( "hw.charge_memo.hit_ratio",
        ratio (float_of_int memo_h) (float_of_int memo_m) );
    ]
  @ List.map (fun (m, family) -> (m, total family /. np)) counters
  @ [ ("trace_overhead_pct", ((wall passes /. wall untraced) -. 1.) *. 100.) ]

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let run o =
  let w =
    match List.find_opt (fun w -> w.S.name = o.workload) S.workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ o.workload)
  in
  let pass = w.S.prepare ~seed:o.seed ~smoke:o.smoke in
  let start = now_ns () in
  let untraced = ref [] and traced = ref [] in
  let counters_snap = ref Metrics.empty in
  let one ~tracing =
    Gc.compact ();
    if tracing then begin
      R.on := true;
      Metrics.enable ()
    end;
    let before = if tracing then Metrics.snapshot () else Metrics.empty in
    let p = summarize (pass ~config:Covirt.Config.mem_ipi ~sabotage:o.sabotage) in
    if tracing then begin
      counters_snap :=
        Metrics.merge !counters_snap (Metrics.diff ~before ~after:(Metrics.snapshot ()));
      Metrics.disable ();
      R.on := false;
      traced := p :: !traced
    end
    else untraced := p :: !untraced
  in
  (* A traced run alternates traced and untraced passes, so the trace
     overhead is measured under the same conditions. *)
  let min_passes = if o.smoke then 1 else if o.trace then 2 else 3 in
  let rec loop i =
    let enough =
      List.length !untraced >= min_passes
      && ((not o.trace) || List.length !traced >= min_passes)
      && (o.smoke || now_ns () - start >= o.seconds * 1_000_000_000)
    in
    if not enough then begin
      one ~tracing:(o.trace && i mod 2 = 0);
      loop (i + 1)
    end
  in
  loop 0;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let passes = untraced @ traced in
  let first = List.hd passes in
  (* Without per-kernel overheads of its own, [sim_overhead_pct] needs
     the same inputs replayed under the native preset. *)
  let native =
    if first.overheads = [] && not o.trace then begin
      Gc.compact ();
      Some (summarize (pass ~config:Covirt.Config.native ~sabotage:false))
    end
    else None
  in
  let all = passes @ Option.to_list native in
  let attempted = List.fold_left (fun n p -> n + p.audit.S.attempted) 0 all in
  let failed = List.fold_left (fun n p -> n + p.audit.S.failed) 0 all in
  let problems =
    List.concat_map (fun p -> List.rev p.audit.S.problems) all
    @ (if List.for_all (fun p -> p.fingerprint = first.fingerprint) passes then []
       else [ "passes of one run gave different simulated results" ])
    @
    if not o.trace then []
    else
      let wall = List.fold_left (fun n p -> n +. p.wall_s) 0. traced in
      let coverage = seconds !R.top_ns /. wall in
      (if R.spans_nest () then [] else [ "recorded spans do not nest" ])
      @
      if coverage >= 0.9 then []
      else [ Printf.sprintf "top-level spans cover %.1f%% of wall_s" (coverage *. 100.) ]
  in
  let metrics =
    if o.trace then
      layer_metrics ~passes:traced ~untraced ~counters_snap:!counters_snap
    else
      let overhead =
        match (first.overheads, native) with
        | (_ :: _ as ks), _ -> List.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity ks
        | [], Some nat ->
            ((float_of_int first.sim_total /. float_of_int nat.sim_total) -. 1.) *. 100.
        | [], None -> nan
      in
      [
        ("setup_s", median (fun p -> p.setup_s) untraced);
        ("wall_s", best (fun p -> p.wall_s) untraced);
        ("host_op_p50_us", best (fun p -> p.host_p50_us) untraced);
        ("host_op_p99_us", best (fun p -> p.host_p99_us) untraced);
        ("peak_rss_mb", peak_rss_mb ());
        ("sim_op_p50_ns", first.sim_p50_ns);
        ("sim_op_p99_ns", first.sim_p99_ns);
        ("sim_overhead_pct", overhead);
      ]
  in
  let units = if o.trace then per_layer else end_to_end in
  let metrics = List.map (fun (name, v) -> (name, List.assoc name units, v)) metrics in
  let correct = failed = 0 && problems = [] in
  Printf.printf "covirt_bench %s seed=%d passes=%d+%d ops/pass=%d trace=%b\n" o.workload
    o.seed (List.length untraced) (List.length traced) first.ops o.trace;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-36s %16.6f %s\n" name v unit) metrics;
  List.iter
    (fun (k, v) -> Printf.printf "  mem+ipi vs native, %-16s %8.3f %%\n" k v)
    first.overheads;
  List.iter (fun m -> Printf.printf "  CHECK FAILED: %s\n" m) problems;
  let body = result_json ~correct ~attempted ~failed metrics in
  if o.trace then begin
    mkdir_p o.trace_out;
    let base = Filename.concat o.trace_out o.workload in
    R.write_chrome_trace (base ^ "-trace.json");
    write_file (base ^ "-layers.json")
      (Printf.sprintf {|{"workload":%s,"seed":%d,"traced_passes":%d,%s}|}
         (Json.quote o.workload) o.seed (List.length traced) body
      ^ "\n");
    Printf.printf "  trace: %s-trace.json, %s-layers.json\n" base base
  end;
  Option.iter
    (fun f ->
      write_file f
        (Printf.sprintf {|{"workload":%s,"seed":%d,"trace":%b,%s}|}
           (Json.quote o.workload) o.seed o.trace body
        ^ "\n"))
    o.json;
  print_string ("{" ^ body ^ "}\n");
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* compare                                                              *)

(* Python's statistics.quantiles(data, n=4) (exclusive method). *)
let quartiles xs =
  let d = Array.of_list (List.sort compare xs) in
  let ld = Array.length d in
  if ld < 2 then (match xs with x :: _ -> (x, x, x) | [] -> (nan, nan, nan))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let load_runs dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f -> Json.read_file (Filename.concat dir f))

let compare_dirs a b =
  let spec = Json.read_file "BENCHMARK.json" in
  let runs_a = load_runs a and runs_b = load_runs b in
  let workload r = Json.to_string (Json.member "workload" r) in
  let value r name =
    Json.member "value" (Json.member name (Json.member "metrics" r)) |> function
    | Json.Num v -> Some v
    | _ -> None
  in
  Printf.printf "%-13s %-17s %12s %25s %12s %25s %5s  %s\n" "workload" "metric"
    "median A" "quartiles A" "median B" "quartiles B" "wins" "verdict";
  List.iter
    (fun wl ->
      let wname = Json.to_string (Json.member "name" wl) in
      let ra = List.filter (fun r -> workload r = wname) runs_a
      and rb = List.filter (fun r -> workload r = wname) runs_b in
      let fails rs =
        List.fold_left
          (fun (f, n) r ->
            ( f + int_of_float (Json.to_float (Json.member "failed" r)),
              n + int_of_float (Json.to_float (Json.member "attempted" r)) ))
          (0, 0) rs
      in
      if ra <> [] && rb <> [] then begin
        List.iter
          (fun m ->
            let name = Json.to_string (Json.member "name" m) in
            let lower = Json.to_string (Json.member "better" m) = "lower" in
            let bound = Json.to_float (Json.member "bound" m) in
            let va = List.filter_map (fun r -> value r name) ra
            and vb = List.filter_map (fun r -> value r name) rb in
            if va <> [] && vb <> [] then begin
              let q1a, meda, q3a = quartiles va and q1b, medb, q3b = quartiles vb in
              let better x y = if lower then x < y else x > y in
              let pairs = List.combine (List.filteri (fun i _ -> i < List.length vb) va)
                  (List.filteri (fun i _ -> i < List.length va) vb) in
              let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
              let win_frac = float_of_int wins /. float_of_int (List.length pairs) in
              let worse = (if lower then medb -. meda else meda -. medb) /. Float.abs meda in
              let verdict =
                if is_sim name then
                  if List.for_all (fun v -> v = List.hd va) (va @ vb) then "identical"
                  else "CHANGED"
                else if win_frac >= 0.9 && better medb meda
                        && Float.abs (medb -. meda) > q3a -. q1a
                then "improved"
                else if List.for_all (fun y -> List.for_all (fun x -> better y x) va) vb
                then "unchanged"
                else if worse > bound then "REGRESSED"
                else if (q3a -. q1a) /. Float.abs meda > bound then "unresolved"
                else "unchanged"
              in
              Printf.printf "%-13s %-17s %12.6g %25s %12.6g %25s %4.0f%%  %s\n" wname name
                meda
                (Printf.sprintf "[%.6g, %.6g]" q1a q3a)
                medb
                (Printf.sprintf "[%.6g, %.6g]" q1b q3b)
                (win_frac *. 100.) verdict
            end)
          (Json.to_list (Json.member "end_to_end" spec));
        let fa, na = fails ra and fb, nb = fails rb in
        Printf.printf "%-13s %-17s %12s %25s %12s %25s %5s  %s\n" wname "failed/attempted"
          (Printf.sprintf "%d/%d" fa na) "" (Printf.sprintf "%d/%d" fb nb) "" ""
          (if fb > fa then "REGRESSED" else "ok")
      end)
    (Json.to_list (Json.member "workloads" spec));
  0

(* ------------------------------------------------------------------ *)
(* smoke                                                                *)

let smoke bench_json =
  let spec = Json.read_file bench_json in
  let names key =
    List.map
      (fun m ->
        (Json.to_string (Json.member "name" m), Json.to_string (Json.member "unit" m)))
      (Json.to_list (Json.member key spec))
  in
  let e2e = names "end_to_end" and layers = names "per_layer" in
  let fails = ref 0 in
  let expect ok msg =
    if not ok then begin
      incr fails;
      prerr_endline ("smoke: " ^ msg)
    end
  in
  let exe = Sys.executable_name in
  let child args =
    let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
    let rec lines acc =
      match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
    in
    let out = lines [] in
    let st = Unix.close_process_in ic in
    (st, match out with last :: _ -> last | [] -> "")
  in
  let result what args =
    let st, last = child args in
    expect (st = Unix.WEXITED 0) (what ^ ": nonzero exit");
    match Json.parse last with
    | r ->
        expect (Json.member "correct" r = Json.Bool true) (what ^ ": incorrect");
        r
    | exception Json.Parse_error e ->
        expect false (what ^ ": last line is not JSON (" ^ e ^ ")");
        Json.Null
  in
  let has_all what r expected =
    List.iter
      (fun (name, unit) ->
        let m = Json.member name (Json.member "metrics" r) in
        expect
          (Json.member "unit" m = Json.Str unit
          && match Json.member "value" m with Json.Num _ -> true | _ -> false)
          (Printf.sprintf "%s: metric %s missing or not in %s" what name unit))
      expected
  in
  let sim_values r =
    List.filter_map
      (fun (name, _) ->
        if is_sim name then Some (name, Json.member "value" (Json.member name (Json.member "metrics" r)))
        else None)
      e2e
  in
  (* Every span of the Chrome trace lies inside its parent (timestamps
     are printed in µs with ns digits). *)
  let spans_nest path =
    let events = Json.to_list (Json.member "traceEvents" (Json.read_file path)) in
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun e ->
        let args = Json.member "args" e in
        let id = Json.to_float (Json.member "span" args) in
        Hashtbl.replace tbl id
          ( Json.to_float (Json.member "ts" e),
            Json.to_float (Json.member "dur" e),
            Json.to_float (Json.member "parent" args) ))
      events;
    events <> []
    && Hashtbl.fold
         (fun _ (ts, dur, parent) ok ->
           ok
           &&
           parent < 0.
           ||
           match Hashtbl.find_opt tbl parent with
           | Some (pts, pdur, _) -> ts >= pts -. 0.002 && ts +. dur <= pts +. pdur +. 0.002
           | None -> false)
         tbl true
  in
  List.iter
    (fun wl ->
      let w = Json.to_string (Json.member "name" wl) in
      let base = [ "run"; "--workload"; w; "--seed"; "2026"; "--smoke" ] in
      let r1 = result (w ^ " untraced") (base @ [ "--trace"; "0" ]) in
      let r2 = result (w ^ " untraced again") (base @ [ "--trace"; "0" ]) in
      has_all w r1 e2e;
      expect (sim_values r1 = sim_values r2) (w ^ ": sim_* values differ between two runs");
      let rt =
        result (w ^ " traced") (base @ [ "--trace"; "1"; "--trace-out"; "smoke-out" ])
      in
      has_all (w ^ " traced") rt layers;
      let trace = Filename.concat "smoke-out" (w ^ "-trace.json") in
      expect (Sys.file_exists (Filename.concat "smoke-out" (w ^ "-layers.json")))
        (w ^ ": no per-layer JSON");
      expect (Sys.file_exists trace && spans_nest trace) (w ^ ": spans do not nest"))
    (Json.to_list (Json.member "workloads" spec));
  let st, _ =
    child [ "run"; "--workload"; "ipc-doorbell"; "--smoke"; "--break-check"; "--trace"; "0" ]
  in
  expect (st <> Unix.WEXITED 0) "a deliberately failed check did not fail the run";
  if !fails = 0 then print_endline "smoke: ok";
  if !fails = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line.                                                        *)

let usage =
  "usage: covirt_bench run --workload W [--seed S] [--seconds N] [--trace 0|1]\n\
  \                        [--trace-out DIR] [--json FILE] [--smoke] [--break-check]\n\
  \       covirt_bench compare DIR_A DIR_B\n\
  \       covirt_bench smoke BENCHMARK.json\n"

let parse_run args =
  let o =
    ref
      {
        workload = "";
        seed = 2026;
        seconds = 20;
        trace = false;
        trace_out = "bench-out";
        json = None;
        smoke = false;
        sabotage = false;
      }
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> failwith (flag ^ " expects a non-negative integer")
  in
  let rec go = function
    | "--workload" :: v :: rest -> o := { !o with workload = v }; go rest
    | "--seed" :: v :: rest -> o := { !o with seed = int_arg "--seed" v }; go rest
    | "--seconds" :: v :: rest -> o := { !o with seconds = int_arg "--seconds" v }; go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> o := { !o with trace = false }
        | "1" -> o := { !o with trace = true }
        | _ -> failwith "--trace expects 0 or 1");
        go rest
    | "--trace-out" :: v :: rest -> o := { !o with trace_out = v }; go rest
    | "--json" :: v :: rest -> o := { !o with json = Some v }; go rest
    | "--smoke" :: rest -> o := { !o with smoke = true }; go rest
    | "--break-check" :: rest -> o := { !o with sabotage = true }; go rest
    | [] -> !o
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go args

let () =
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "run" :: args -> run (parse_run args)
      | [ "compare"; a; b ] -> compare_dirs a b
      | [ "smoke"; f ] -> smoke f
      | _ ->
          prerr_string usage;
          2
    with Failure m | Sys_error m | Json.Parse_error m ->
      prerr_endline ("covirt_bench: " ^ m);
      2
  in
  exit code
