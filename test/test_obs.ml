(* The observability layer's contract tests:
   - histogram quantiles against a sorted-array oracle
   - label cardinality bounds (overflow series, nothing lost)
   - snapshot-diff algebra (identity, delta correctness)
   - single-branch disabled path records nothing
   - end-to-end exit metrics from a protected run
   - Chrome trace_event export validity
   - and the headline invariant: enabling observability leaves the
     golden transcript bit-identical (recording is measurement, not
     model). *)

open Covirt_obs
open Covirt_test_util

let fresh () =
  Covirt_obs.disable ();
  Covirt_obs.reset ()

(* ------------------------------------------------------------------ *)
(* Histogram quantiles vs oracle.                                      *)

let test_quantile_oracle () =
  fresh ();
  Metrics.enable ();
  let h = Metrics.(unlabeled (histogram "t.quantile")) in
  let rng = Covirt_sim.Rng.create ~seed:11 in
  let n = 10_000 in
  let samples =
    Array.init n (fun _ ->
        (* log-uniform over [1, 1e6]: exercises many buckets *)
        exp (Covirt_sim.Rng.float rng *. log 1e6))
  in
  Array.iter (fun v -> Metrics.observe h v) samples;
  let snap = Metrics.snapshot () in
  let hist =
    match Metrics.find snap "t.quantile" with
    | [ (_, Metrics.Histogram h) ] -> h
    | _ -> Alcotest.fail "expected one histogram series"
  in
  Alcotest.(check int) "all samples" n hist.Metrics.Hist.n;
  (* Geometric buckets with base 1.15 bound the relative quantile error
     by one bucket's growth; allow a whisker on top for the oracle's
     rank interpolation. *)
  let tolerance = 1.16 in
  List.iter
    (fun p ->
      let est = Metrics.Hist.quantile hist ~p in
      let oracle = Covirt_sim.Stats.percentile samples ~p in
      let ratio = est /. oracle in
      if ratio > tolerance || ratio < 1. /. tolerance then
        Alcotest.failf "p%.0f: estimate %.2f vs oracle %.2f (ratio %.3f)" p
          est oracle ratio)
    [ 50.; 90.; 95.; 99. ];
  (* The maximum is tracked exactly, not bucketed. *)
  let max_oracle = Array.fold_left Float.max 0. samples in
  Alcotest.(check (float 1e-9))
    "p100 = exact max" max_oracle
    (Metrics.Hist.quantile hist ~p:100.)

let test_quantile_empty () =
  fresh ();
  Metrics.enable ();
  ignore Metrics.(unlabeled (histogram "t.empty"));
  match Metrics.find (Metrics.snapshot ()) "t.empty" with
  | [ (_, Metrics.Histogram h) ] ->
      Alcotest.(check (float 0.)) "empty p50" 0. (Metrics.Hist.quantile h ~p:50.);
      Alcotest.(check bool) "is_zero" true (Metrics.Hist.is_zero h)
  | _ -> Alcotest.fail "expected one histogram series"

(* ------------------------------------------------------------------ *)
(* Cardinality bounds.                                                 *)

let test_cardinality_bound () =
  fresh ();
  Metrics.enable ();
  let fam = Metrics.counter ~max_series:8 "t.card" in
  for i = 0 to 19 do
    Metrics.add (Metrics.cell fam { Metrics.no_label with enclave = i }) 1
  done;
  Alcotest.(check int) "series capped" 8 (Metrics.series_count fam);
  Alcotest.(check int) "drops counted" 12 (Metrics.dropped_series fam);
  (* Nothing is lost: overflow labels share one series, so the family
     total still accounts for every increment. *)
  Alcotest.(check int)
    "total preserved" 20
    (Metrics.total_counter (Metrics.snapshot ()) "t.card")

(* ------------------------------------------------------------------ *)
(* Snapshot-diff algebra.                                              *)

let test_diff_identity () =
  fresh ();
  Metrics.enable ();
  let c = Metrics.(unlabeled (counter "t.diff.c")) in
  let h = Metrics.(unlabeled (histogram "t.diff.h")) in
  let g = Metrics.(unlabeled (gauge "t.diff.g")) in
  Metrics.add c 7;
  Metrics.observe h 123.;
  Metrics.set g 3.5;
  let s = Metrics.snapshot () in
  Alcotest.(check bool)
    "diff s s = 0" true
    (Metrics.is_zero (Metrics.diff ~before:s ~after:s))

let test_diff_delta () =
  fresh ();
  Metrics.enable ();
  let c = Metrics.(unlabeled (counter "t.delta")) in
  let h = Metrics.(unlabeled (histogram "t.delta.h")) in
  Metrics.add c 5;
  Metrics.observe h 10.;
  let before = Metrics.snapshot () in
  Metrics.add c 3;
  Metrics.observe h 20.;
  Metrics.observe h 30.;
  let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  Alcotest.(check int) "counter delta" 3 (Metrics.total_counter d "t.delta");
  (match Metrics.find d "t.delta.h" with
  | [ (_, Metrics.Histogram hd) ] ->
      Alcotest.(check int) "hist delta n" 2 hd.Metrics.Hist.n;
      Alcotest.(check (float 1e-9)) "hist delta sum" 50. hd.Metrics.Hist.sum
  | _ -> Alcotest.fail "expected histogram series in diff");
  Alcotest.(check bool) "delta not zero" false (Metrics.is_zero d)

(* ------------------------------------------------------------------ *)
(* Disabled path records nothing.                                      *)

let test_disabled_records_nothing () =
  fresh ();
  (* Drive the instrumented TLB and EPT paths with recording off. *)
  let open Covirt_hw in
  let model = Cost_model.default in
  let tlb = Tlb.create ~model in
  Tlb.install tlb 0x200000 ~page_size:Addr.Page_2m;
  ignore (Tlb.lookup tlb 0x200400);
  ignore (Tlb.lookup tlb 0x999999000);
  Tlb.flush_all tlb;
  let mib = Covirt_sim.Units.mib in
  let ept = Ept.create () in
  Ept.map_region ept (Region.make ~base:0 ~len:(64 * mib));
  ignore (Ept.translate ept 0x1000 ~access:`Read);
  ignore (Ept.translate ept (512 * mib) ~access:`Read);
  Alcotest.(check bool)
    "nothing recorded while disabled" true
    (Metrics.is_zero (Metrics.snapshot ()))

(* ------------------------------------------------------------------ *)
(* End-to-end: a protected run populates exit metrics.                 *)

let test_protected_run_metrics () =
  fresh ();
  Covirt_obs.enable ();
  let before = Metrics.snapshot () in
  let s = Helpers.boot_stack () in
  (match
     Covirt_pisces.Pisces.run_guarded (Helpers.pisces s) (fun () ->
         Covirt_kitten.Kitten.wrmsr_sensitive (Helpers.ctx s 1))
   with
  | Error _ -> () (* contained kill, as the full config demands *)
  | Ok () -> Alcotest.fail "wrmsr should have been contained");
  let d = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  Alcotest.(check bool)
    "vm exits recorded" true
    (Metrics.total_counter d "vmexit.count" > 0);
  (match Metrics.merged_hist d "vmexit.cycles" ~dim:"msr-access" with
  | Some h ->
      Alcotest.(check bool) "msr exit latency sampled" true
        (h.Metrics.Hist.n >= 1 && h.Metrics.Hist.max_v > 0.)
  | None -> Alcotest.fail "no msr-access latency histogram");
  Alcotest.(check bool)
    "fault report counted" true
    (Metrics.total_counter d "fault.report" >= 1);
  fresh ()

(* ------------------------------------------------------------------ *)
(* Exporter: Chrome trace_event JSON and JSONL.                        *)

let test_exporter_json () =
  fresh ();
  Exporter.set_capacity 4;
  Exporter.enable ();
  Span.complete ~name:"hlt" ~cat:"vmexit" ~pid:1 ~tid:2 ~ts:1700 ~dur:3400 ();
  Span.instant
    ~name:"fault:\"quoted\"\nline"
    ~cat:"fault" ~pid:1 ~tid:2 ~ts:5100
    ~args:[ ("detail", "x") ]
    ();
  let json = Exporter.to_chrome_json () in
  Alcotest.(check bool)
    "chrome envelope" true
    (String.length json > 0
    && String.sub json 0 15 = "{\"traceEvents\":"
    && json.[String.length json - 2] = '}');
  (* cycles -> µs at the default 1.7 GHz: 1700 cycles = 1 µs *)
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ts converted" true (contains "\"ts\":1.000" json);
  Alcotest.(check bool) "dur converted" true (contains "\"dur\":2.000" json);
  Alcotest.(check bool) "escaping" true (contains "fault:\\\"quoted\\\"\\nline" json);
  Alcotest.(check bool) "no raw newline in strings" true
    (not (contains "fault:\"quoted\"" json));
  (* Overflow drops new events and counts them. *)
  for i = 0 to 9 do
    Span.instant ~name:"x" ~cat:"t" ~pid:0 ~tid:0 ~ts:i ()
  done;
  Alcotest.(check int) "buffer capped" 4 (Exporter.length ());
  Alcotest.(check int) "drops counted" 8 (Exporter.dropped ());
  let path = Filename.temp_file "covirt_obs" ".jsonl" in
  Exporter.write_jsonl ~path;
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "jsonl one line per event" 4 !lines;
  fresh ()

let test_disabled_span_is_dropped () =
  fresh ();
  Exporter.set_capacity 16;
  Span.complete ~name:"x" ~cat:"t" ~pid:0 ~tid:0 ~ts:0 ~dur:1 ();
  Span.instant ~name:"y" ~cat:"t" ~pid:0 ~tid:0 ~ts:0 ();
  Alcotest.(check int) "no events when disabled" 0 (Exporter.length ())

(* ------------------------------------------------------------------ *)
(* The golden transcript is bit-identical with observability ON.       *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_with_obs_enabled () =
  fresh ();
  Covirt_obs.enable ();
  Exporter.set_capacity 65536;
  Exporter.enable ();
  Profiler.set_phase "golden";
  let expected = read_file "golden/translation.expected" in
  let actual = Covirt_harness.Golden.capture () in
  fresh ();
  if not (String.equal expected actual) then
    Alcotest.fail
      "golden transcript changed under observability — recording must never \
       charge simulated cycles or alter output"

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "quantiles vs oracle" `Quick test_quantile_oracle;
          Alcotest.test_case "empty histogram" `Quick test_quantile_empty;
          Alcotest.test_case "cardinality bound" `Quick test_cardinality_bound;
          Alcotest.test_case "diff identity" `Quick test_diff_identity;
          Alcotest.test_case "diff delta" `Quick test_diff_delta;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "protected run metrics" `Quick
            test_protected_run_metrics;
        ] );
      ( "exporter",
        [
          Alcotest.test_case "chrome json + jsonl" `Quick test_exporter_json;
          Alcotest.test_case "disabled spans dropped" `Quick
            test_disabled_span_is_dropped;
        ] );
      ( "golden",
        [
          Alcotest.test_case "bit-identical with obs on" `Slow
            test_golden_with_obs_enabled;
        ] );
    ]
