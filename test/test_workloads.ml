(* Workload tests: real-arithmetic correctness and cost-model sanity of
   the six benchmark kernels. *)

open Covirt_workloads
open Covirt_test_util

let mib = Covirt_sim.Units.mib

let stack ?(config = Covirt.Config.native) () =
  Helpers.boot_stack ~config
    ~mem:[ (0, 768 * mib); (1, 512 * mib) ]
    ()

let single_ctx s = [ Helpers.ctx s 1 ]

let test_exec_alloc_and_shard () =
  let s = stack () in
  let ctx = Helpers.ctx s 1 in
  (match Exec.alloc ctx ~bytes:(8 * mib) () with
  | Ok buffer ->
      Alcotest.(check int) "nominal" (8 * mib) buffer.Exec.nominal_bytes;
      Alcotest.(check bool) "backing capped" true
        (Array.length buffer.Exec.data <= Exec.default_backing_cap)
  | Error e -> Alcotest.fail e);
  Alcotest.(check (pair int int)) "shard 0" (0, 3) (Exec.shard ~elems:10 ~ways:3 ~index:0);
  Alcotest.(check (pair int int)) "last shard takes slack" (6, 4)
    (Exec.shard ~elems:10 ~ways:3 ~index:2)

let prop_shards_partition =
  Helpers.qtest "shards partition the range"
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 1 16))
    (fun (elems, ways) ->
      let shards = List.init ways (fun i -> Exec.shard ~elems ~ways ~index:i) in
      let total = List.fold_left (fun acc (_, len) -> acc + len) 0 shards in
      let contiguous =
        let rec check expected = function
          | [] -> true
          | (off, len) :: rest -> off = expected && check (off + len) rest
        in
        check 0 shards
      in
      total = elems && contiguous)

let test_stream_correctness () =
  let s = stack () in
  match Stream.run (single_ctx s) ~elems:100_000 ~iters:2 () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "rates positive" true
        (r.Stream.copy_mb_s > 0.0 && r.Stream.scale_mb_s > 0.0
        && r.Stream.add_mb_s > 0.0 && r.Stream.triad_mb_s > 0.0);
      (* after the kernel sequence a[i] = b + 3c with b=3c0... the
         checksum is finite and deterministic *)
      Alcotest.(check bool) "checksum finite" true
        (Float.is_finite r.Stream.checksum);
      Alcotest.(check bool) "checksum nonzero" true (r.Stream.checksum > 0.0)

let test_stream_deterministic () =
  let run () =
    let s = stack () in
    match Stream.run (single_ctx s) ~elems:100_000 ~iters:2 () with
    | Ok r -> (r.Stream.triad_mb_s, r.Stream.checksum)
    | Error e -> Alcotest.fail e
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let test_gups_verifies () =
  let s = stack () in
  match Random_access.run (single_ctx s) ~log2_table:20 () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "verify clean" 0 r.Random_access.verify_errors;
      Alcotest.(check bool) "gups positive" true (r.Random_access.gups > 0.0);
      Alcotest.(check int) "updates 4x table" (4 * (1 lsl 20))
        r.Random_access.updates

let test_selfish_profile () =
  let s = stack () in
  let ctx = Helpers.ctx s 1 in
  let r = Selfish.run ctx ~duration_s:1.0 () in
  (* 10 Hz tick for 1s -> ~10 timer detours plus rare background *)
  let timer_detours =
    List.length
      (List.filter (fun d -> d.Selfish.cause = "timer") r.Selfish.detours)
  in
  Alcotest.(check bool) "about 10 ticks" true
    (timer_detours >= 9 && timer_detours <= 11);
  Alcotest.(check bool) "noise fraction tiny" true (r.Selfish.noise_fraction < 0.001);
  Alcotest.(check int) "histogram total matches" (List.length r.Selfish.detours)
    (Covirt_sim.Histogram.count r.Selfish.histogram)

let test_selfish_threshold_filters () =
  let s = stack () in
  let ctx = Helpers.ctx s 1 in
  let all = Selfish.run ctx ~duration_s:1.0 ~threshold_cycles:100 () in
  let s2 = stack () in
  let ctx2 = Helpers.ctx s2 1 in
  let strict = Selfish.run ctx2 ~duration_s:1.0 ~threshold_cycles:1_000_000 () in
  Alcotest.(check bool) "strict threshold filters" true
    (List.length strict.Selfish.detours < List.length all.Selfish.detours)

let test_hpcg_converges () =
  let s = stack () in
  match Hpcg.run (single_ctx s) ~real_dim:12 ~iterations:40 () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "residual dropped" true (r.Hpcg.final_residual < 0.5);
      Alcotest.(check int) "all iterations ran" 40 r.Hpcg.iterations;
      Alcotest.(check bool) "gflops positive" true (r.Hpcg.gflops > 0.0)

let test_minife_solves () =
  let s = stack () in
  match
    Minife.run (single_ctx s) ~nominal_dim:64 ~real_dim:10 ~iterations:40 ()
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "residual dropped" true (r.Minife.final_residual < 0.5);
      Alcotest.(check bool) "assembly timed" true (r.Minife.assembly_seconds > 0.0);
      Alcotest.(check bool) "total >= assembly" true
        (r.Minife.total_seconds >= r.Minife.assembly_seconds)

(* [stable] must mean what it says: every bench ends with a bounded,
   finite kinetic energy (the chain once exploded to ~1e30 while
   [stable] only looked for NaN). *)
let test_lammps_all_benches_stable () =
  List.iter
    (fun atoms ->
      List.iter
        (fun bench ->
          let s = stack () in
          match Lammps.run (single_ctx s) ~bench ~real_atoms:atoms ~steps:30 () with
          | Error e -> Alcotest.fail e
          | Ok r ->
              let name = Printf.sprintf "%s at %d atoms" (Lammps.bench_name bench) atoms in
              let per_atom = r.Lammps.final_kinetic_energy /. float_of_int atoms in
              Alcotest.(check bool) (name ^ " stable") true r.Lammps.stable;
              Alcotest.(check bool)
                (Printf.sprintf "%s: KE %g per atom" name per_atom)
                true (per_atom <= 10.0);
              Alcotest.(check bool) "loop time positive" true (r.Lammps.loop_seconds > 0.0))
        Lammps.all_benches)
    [ 256; 2048 ]

let test_lammps_chute_detects_gravity () =
  (* chute atoms fall: kinetic energy grows from the pour *)
  let s = stack () in
  match Lammps.run (single_ctx s) ~bench:Lammps.Chute ~real_atoms:256 ~steps:30 () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "dynamics alive" true
        (r.Lammps.final_kinetic_energy > 0.0)

(* O(n^2) reference for [Md.lj_forces]: every pair once, minimum image
   in x and y, z open. *)
let reference_lj_forces (a : Lammps.Md.atoms) ~box ~cutoff =
  let n = a.n in
  let fx = Array.make n 0.0 and fy = Array.make n 0.0 and fz = Array.make n 0.0 in
  let half = box /. 2.0 in
  let image d = if d > half then d -. box else if d < -.half then d +. box else d in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dx = image (a.x.(i) -. a.x.(j)) and dy = image (a.y.(i) -. a.y.(j)) in
      let dz = a.z.(i) -. a.z.(j) in
      let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      if r2 < cutoff *. cutoff then begin
        let sr6 = 1.0 /. (r2 *. r2 *. r2) in
        let f = 24.0 *. sr6 *. ((2.0 *. sr6) -. 1.0) /. r2 in
        fx.(i) <- fx.(i) +. (f *. dx);
        fy.(i) <- fy.(i) +. (f *. dy);
        fz.(i) <- fz.(i) +. (f *. dz);
        fx.(j) <- fx.(j) -. (f *. dx);
        fy.(j) <- fy.(j) -. (f *. dy);
        fz.(j) <- fz.(j) -. (f *. dz)
      end
    done
  done;
  (fx, fy, fz)

(* The cell list (and its small-box fallback) must find exactly the
   reference's pairs: at 256 atoms and cutoff 2.5 the box is under 3
   cutoffs, where wrapped neighbour cells coincide. *)
let test_lj_forces_match_reference () =
  List.iter
    (fun (n, cutoff) ->
      let a = Lammps.Md.create n in
      let box = (float_of_int n ** (1.0 /. 3.0)) *. 1.1 in
      let rng = Covirt_sim.Rng.create ~seed:11 in
      Lammps.Md.lattice a ~box ~rng;
      (* jitter off the lattice so forces do not cancel by symmetry *)
      for i = 0 to n - 1 do
        a.x.(i) <- a.x.(i) +. (0.2 *. (Covirt_sim.Rng.float rng -. 0.5));
        a.y.(i) <- a.y.(i) +. (0.2 *. (Covirt_sim.Rng.float rng -. 0.5));
        a.z.(i) <- a.z.(i) +. (0.2 *. (Covirt_sim.Rng.float rng -. 0.5))
      done;
      Lammps.Md.lj_forces ~box a ~cutoff ~eps:1.0 ~sigma:1.0;
      let rx, ry, rz = reference_lj_forces a ~box ~cutoff in
      let err = ref 0.0 and top = ref 0.0 in
      let cmp got want =
        Array.iteri
          (fun i w ->
            err := Float.max !err (Float.abs (got.(i) -. w));
            top := Float.max !top (Float.abs w))
          want
      in
      cmp a.fx rx;
      cmp a.fy ry;
      cmp a.fz rz;
      Alcotest.(check bool)
        (Printf.sprintf "%d atoms, cutoff %g: max error %g, max force %g" n cutoff !err
           !top)
        true
        (!top > 1.0 && !err <= 1e-9 *. !top))
    [ (256, 2.5); (256, 1.12); (2048, 2.5); (2048, 1.12) ]

(* The kernels' outputs, bit for bit ([%h]), as the direct double loops
   and bounds-tested stencil produced them before the kernels were made
   allocation-free.  At 512 atoms the box holds 3 cells of the LJ
   cutoff, so the cell-list path runs. *)
let pinned_kinetic_energy =
  [
    (Lammps.Lj, "0x1.7eb1bcf46e267p+5");
    (Lammps.Eam, "0x1.7dd6b197c94dp+5");
    (Lammps.Chute, "0x1.85d8b124d2532p+5");
  ]

let pinned_residual = [ (12, "0x1.32113db66f673p-7"); (20, "0x1.5c669b2e0cf82p-6") ]

let test_kernels_pinned () =
  List.iter
    (fun (bench, want) ->
      let s = stack () in
      match Lammps.run (single_ctx s) ~bench ~real_atoms:512 ~steps:30 () with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check string)
            (Lammps.bench_name bench ^ " final KE")
            want
            (Printf.sprintf "%h" r.Lammps.final_kinetic_energy))
    pinned_kinetic_energy;
  List.iter
    (fun (real_dim, want) ->
      let s = stack () in
      match Hpcg.run (single_ctx s) ~real_dim ~iterations:50 () with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check string)
            (Printf.sprintf "HPCG residual at %d^3" real_dim)
            want
            (Printf.sprintf "%h" r.Hpcg.final_residual))
    pinned_residual

(* Minor words per real MD step (per CG iteration): the difference
   between a 25- and a 5-step run, over 20.  Only the nominal charges
   and a few boxed results may allocate; the kernels allocate nothing.
   Native code only: bytecode boxes every float temporary. *)
let per_step_words run =
  let words steps =
    let s = stack () in
    let before = Gc.minor_words () in
    (match run (single_ctx s) steps with Ok () -> () | Error e -> Alcotest.fail e);
    Gc.minor_words () -. before
  in
  (words 25 -. words 5) /. 20.0

let test_kernels_allocation_free () =
  if Sys.backend_type = Sys.Native then begin
    let check what w =
      Alcotest.(check bool) (Printf.sprintf "%s: %.0f minor words" what w) true (w <= 512.0)
    in
    List.iter
      (fun bench ->
        per_step_words (fun ctxs steps ->
            Result.map ignore (Lammps.run ctxs ~bench ~real_atoms:512 ~steps ()))
        |> check (Lammps.bench_name bench ^ " per MD step"))
      Lammps.all_benches;
    per_step_words (fun ctxs iterations ->
        Result.map ignore (Hpcg.run ctxs ~real_dim:12 ~iterations ()))
    |> check "HPCG per CG iteration"
  end

let test_multicore_faster () =
  (* the same nominal problem on 2 cores finishes in less simulated
     time than on 1 *)
  let time ncores =
    let s = stack () in
    let ctxs =
      List.filteri (fun i _ -> i < ncores)
        (List.map (Helpers.ctx s) [ 1; 2 ])
    in
    match Hpcg.run ctxs ~real_dim:10 ~iterations:10 () with
    | Ok r -> r.Hpcg.gflops
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "2 cores beat 1" true (time 2 > time 1)

let test_ept_protection_slows_gups () =
  let gups config =
    let s = stack ~config () in
    match Random_access.run (single_ctx s) ~log2_table:25 () with
    | Ok r -> r.Random_access.gups
    | Error e -> Alcotest.fail e
  in
  let native = gups Covirt.Config.native in
  let mem = gups Covirt.Config.mem in
  let overhead = (native -. mem) /. native in
  Alcotest.(check bool) "visible but small (0.5%..4%)" true
    (overhead > 0.005 && overhead < 0.04)

let both_ctx s = [ Helpers.ctx s 1; Helpers.ctx s 2 ]

let test_stream_multicore () =
  let s = stack () in
  match Stream.run (both_ctx s) ~elems:100_000 ~iters:2 () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "rates positive" true (r.Stream.triad_mb_s > 0.0);
      (* two cores move the same bytes in less simulated time *)
      let s1 = stack () in
      (match Stream.run [ Helpers.ctx s1 1 ] ~elems:100_000 ~iters:2 () with
      | Ok solo ->
          Alcotest.(check bool) "parallel >= solo" true
            (r.Stream.triad_mb_s >= solo.Stream.triad_mb_s)
      | Error e -> Alcotest.fail e)

let test_gups_multicore_splits_updates () =
  let s = stack () in
  match Random_access.run (both_ctx s) ~log2_table:20 () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check int) "verify clean" 0 r.Random_access.verify_errors;
      Alcotest.(check int) "nominal updates unchanged" (4 * (1 lsl 20))
        r.Random_access.updates

let test_minife_multicore () =
  let s = stack () in
  match
    Minife.run (both_ctx s) ~nominal_dim:64 ~real_dim:8 ~iterations:20 ()
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "converging" true (r.Minife.final_residual < 1.0)

let test_lammps_multicore_stable () =
  let s = stack () in
  match
    Lammps.run (both_ctx s) ~bench:Lammps.Lj ~real_atoms:256 ~steps:20 ()
  with
  | Error e -> Alcotest.fail e
  | Ok r -> Alcotest.(check bool) "stable" true r.Lammps.stable

let test_alloc_failure_path () =
  let s = stack () in
  let ctx = Helpers.ctx s 1 in
  Alcotest.(check bool) "oversized alloc fails" true
    (Result.is_error (Exec.alloc ctx ~bytes:(1 lsl 50) ()))

let test_hpcg_mg_beats_plain_iteration_count () =
  (* the MG preconditioner's reason to exist: fewer iterations to a
     given residual than the iteration count alone would suggest *)
  let s = stack () in
  match Hpcg.run (single_ctx s) ~real_dim:16 ~iterations:25 () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "preconditioned CG converges fast" true
        (r.Hpcg.final_residual < 0.05)

let () =
  Alcotest.run "workloads"
    [
      ( "exec",
        [
          Alcotest.test_case "alloc and shard" `Quick test_exec_alloc_and_shard;
          prop_shards_partition;
        ] );
      ( "stream",
        [
          Alcotest.test_case "correctness" `Quick test_stream_correctness;
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
        ] );
      ("gups", [ Alcotest.test_case "verifies" `Quick test_gups_verifies ]);
      ( "selfish",
        [
          Alcotest.test_case "profile" `Quick test_selfish_profile;
          Alcotest.test_case "threshold" `Quick test_selfish_threshold_filters;
        ] );
      ( "hpcg",
        [
          Alcotest.test_case "converges" `Quick test_hpcg_converges;
          Alcotest.test_case "multicore faster" `Quick test_multicore_faster;
        ] );
      ("minife", [ Alcotest.test_case "solves" `Quick test_minife_solves ]);
      ( "kernels",
        [
          Alcotest.test_case "outputs pinned bit for bit" `Quick test_kernels_pinned;
          Alcotest.test_case "allocation-free" `Quick test_kernels_allocation_free;
        ] );
      ( "lammps",
        [
          Alcotest.test_case "all stable" `Quick test_lammps_all_benches_stable;
          Alcotest.test_case "chute gravity" `Quick test_lammps_chute_detects_gravity;
          Alcotest.test_case "lj forces match O(n^2) reference" `Quick
            test_lj_forces_match_reference;
        ] );
      ( "overheads",
        [ Alcotest.test_case "EPT slows GUPS" `Quick test_ept_protection_slows_gups ]
      );
      ( "multicore",
        [
          Alcotest.test_case "stream" `Quick test_stream_multicore;
          Alcotest.test_case "gups" `Quick test_gups_multicore_splits_updates;
          Alcotest.test_case "minife" `Quick test_minife_multicore;
          Alcotest.test_case "lammps" `Quick test_lammps_multicore_stable;
          Alcotest.test_case "alloc failure" `Quick test_alloc_failure_path;
          Alcotest.test_case "hpcg MG convergence" `Quick
            test_hpcg_mg_beats_plain_iteration_count;
        ] );
    ]
