(* The isolation sanitizer: static verifier, shadow sanitizer, and the
   whitelist-lifecycle fixes that ride along with them.

   The structure mirrors the analyzer's contract: a clean protected
   stack must verify with zero violations, and each corruption class
   must produce exactly its typed violation — nothing vaguer. *)

open Covirt_test_util
open Covirt_analysis

let mib = Helpers.mib

(* A protected two-enclave stack with a legitimate XEMEM share and a
   doorbell pair — everything the verifier must bless, nothing it may
   flag. *)
let rich_stack () =
  let stack = Helpers.boot_stack () in
  let beta, _ = Helpers.second_enclave stack () in
  let xemem = Covirt_hobbes.Hobbes.xemem stack.Helpers.hobbes in
  let share =
    match
      Covirt_hw.Region.Set.to_list
        stack.Helpers.enclave.Covirt_pisces.Enclave.memory
    with
    | r :: _ -> Covirt_hw.Region.make ~base:r.Covirt_hw.Region.base ~len:(2 * mib)
    | [] -> Alcotest.fail "enclave has no memory"
  in
  (match
     Covirt_xemem.Xemem.export xemem
       ~exporter:
         (Covirt_xemem.Name_service.Enclave_export
            stack.Helpers.enclave.Covirt_pisces.Enclave.id)
       ~name:"share" ~pages:[ share ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "export: %s" e);
  (match Covirt_xemem.Xemem.attach xemem beta ~name:"share" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach: %s" e);
  (match
     Covirt_hobbes.Hobbes.grant_vector_pair stack.Helpers.hobbes
       stack.Helpers.enclave beta
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "grant_vector_pair: %s" e);
  (stack, beta, xemem)

let verify ?(registry = true) stack xemem =
  if registry then
    Verifier.run ~registry:(Covirt_xemem.Xemem.registry xemem)
      stack.Helpers.controller
  else Verifier.run stack.Helpers.controller

let instance_of stack (e : Covirt_pisces.Enclave.t) =
  match
    Covirt.Controller.instance_for stack.Helpers.controller
      ~enclave_id:e.Covirt_pisces.Enclave.id
  with
  | Some i -> i
  | None -> Alcotest.fail "no controller instance"

let ept_of inst =
  match inst.Covirt.Controller.ept_mgr with
  | Some mgr -> Covirt.Ept_manager.ept mgr
  | None -> Alcotest.fail "no EPT manager under full config"

let kinds report =
  List.map (fun (v : Violation.t) -> Violation.kind_name v.kind)
    report.Verifier.violations

(* ------------------------------------------------------------------ *)
(* Static verifier: clean runs                                         *)

let test_clean_stack () =
  let stack, _, xemem = rich_stack () in
  let report = verify stack xemem in
  Alcotest.(check int) "enclaves" 2 report.Verifier.enclaves_checked;
  Alcotest.(check bool) "leaves walked" true (report.Verifier.leaves_checked > 0);
  Alcotest.(check bool) "grants audited" true (report.Verifier.grants_checked >= 2);
  Alcotest.(check (list string)) "no violations" [] (kinds report)

(* The registry is what blesses a mapping when the enclave's own
   records have gone stale: wipe beta's [shared] bookkeeping and the
   attached frames (still in beta's EPT) look like a cross-owner
   mapping — unless the registry still vouches for the segment. *)
let test_registry_blesses_share () =
  let stack, beta, xemem = rich_stack () in
  beta.Covirt_pisces.Enclave.shared <- Covirt_hw.Region.Set.empty;
  let with_reg = verify stack xemem in
  let without = verify ~registry:false stack xemem in
  Alcotest.(check (list string)) "clean with registry" [] (kinds with_reg);
  Alcotest.(check bool) "share flagged without registry" true
    (List.exists
       (fun (v : Violation.t) ->
         match v.kind with Violation.Cross_owner_mapping _ -> true | _ -> false)
       without.Verifier.violations)

let test_legit_ops_stay_clean =
  Helpers.qtest ~count:15 "random legitimate ops stay clean"
    QCheck2.Gen.(list_size (int_range 1 6) (int_range 0 2))
    (fun ops ->
      let stack, _, xemem = rich_stack () in
      let p = Helpers.pisces stack in
      let enclave = stack.Helpers.enclave in
      let added = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
              match
                Covirt_pisces.Pisces.add_memory p enclave ~zone:0 ~len:(4 * mib)
              with
              | Ok r -> added := r :: !added
              | Error _ -> ())
          | 1 -> (
              match !added with
              | r :: rest -> (
                  match Covirt_pisces.Pisces.remove_memory p enclave r with
                  | Ok () -> added := rest
                  | Error _ -> ())
              | [] -> ())
          | _ ->
              Covirt_kitten.Kitten.store_addr (Helpers.ctx stack 1)
                (match
                   Covirt_hw.Region.Set.to_list
                     enclave.Covirt_pisces.Enclave.memory
                 with
                | r :: _ -> r.Covirt_hw.Region.base + 512
                | [] -> 0))
        ops;
      Verifier.clean (verify stack xemem))

(* ------------------------------------------------------------------ *)
(* Static verifier: corruption classes                                 *)

let test_cross_owner_leaf () =
  let stack, beta, xemem = rich_stack () in
  let target =
    match
      Covirt_hw.Region.Set.to_list beta.Covirt_pisces.Enclave.memory
    with
    | r :: _ -> Covirt_hw.Region.make ~base:r.Covirt_hw.Region.base ~len:(2 * mib)
    | [] -> Alcotest.fail "beta has no memory"
  in
  Covirt_hw.Ept.map_region (ept_of (instance_of stack stack.Helpers.enclave))
    target;
  let report = verify stack xemem in
  let cross =
    List.filter
      (fun (v : Violation.t) ->
        match v.kind with
        | Violation.Cross_owner_mapping { actual } ->
            Covirt_hw.Owner.equal actual
              (Covirt_hw.Owner.Enclave beta.Covirt_pisces.Enclave.id)
        | _ -> false)
      report.Verifier.violations
  in
  Alcotest.(check bool) "cross-owner leaf flagged, naming beta" true
    (cross <> []);
  Alcotest.(check bool) "critical severity" true
    (List.for_all
       (fun (v : Violation.t) -> v.Violation.severity = Violation.Critical)
       cross)

let test_unbacked_leaf () =
  let stack, _, xemem = rich_stack () in
  let mem = stack.Helpers.machine.Covirt_hw.Machine.mem in
  let r =
    match
      Covirt_hw.Phys_mem.alloc mem ~owner:Covirt_hw.Owner.Host ~zone:1
        ~len:(4 * mib)
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "alloc: %s" e
  in
  Covirt_hw.Phys_mem.release mem r;
  Covirt_hw.Ept.map_region (ept_of (instance_of stack stack.Helpers.enclave)) r;
  let report = verify stack xemem in
  Alcotest.(check bool) "unbacked mapping flagged" true
    (List.exists
       (fun (v : Violation.t) -> v.kind = Violation.Unbacked_mapping)
       report.Verifier.violations)

let test_stale_grant () =
  let stack, _, xemem = rich_stack () in
  (* Core 0 is the host's: no live enclave owns it, so a doorbell
     grant towards it is stale by definition. *)
  Covirt.Whitelist.grant
    (instance_of stack stack.Helpers.enclave).Covirt.Controller.whitelist
    ~vector:0xd1 ~dest:0;
  let report = verify stack xemem in
  match
    List.filter_map
      (fun (v : Violation.t) ->
        match v.kind with
        | Violation.Stale_grant { vector; dest } -> Some (vector, dest)
        | _ -> None)
      report.Verifier.violations
  with
  | [ (vector, dest) ] ->
      Alcotest.(check int) "vector" 0xd1 vector;
      Alcotest.(check int) "dest" 0 dest
  | other -> Alcotest.failf "expected one stale grant, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Shadow sanitizer                                                    *)

let with_shadow f =
  let had = Shadow.requested () in
  Shadow.request ();
  Fun.protect ~finally:(fun () -> if not had then Shadow.release ()) f

let test_shadow_clean_run () =
  with_shadow (fun () ->
      let stack, _, xemem = rich_stack () in
      Alcotest.(check bool) "shadow armed" true (Shadow.active ());
      Covirt_kitten.Kitten.store_addr (Helpers.ctx stack 1)
        (match
           Covirt_hw.Region.Set.to_list
             stack.Helpers.enclave.Covirt_pisces.Enclave.memory
         with
        | r :: _ -> r.Covirt_hw.Region.base + 128
        | [] -> 0);
      let s = Shadow.stats () in
      Alcotest.(check bool) "accesses checked" true (s.Shadow.accesses > 0);
      Alcotest.(check bool) "ept writes mirrored" true (s.Shadow.ept_writes > 0);
      Alcotest.(check (list string)) "no shadow violations" []
        (List.map
           (fun (v : Violation.t) -> Violation.kind_name v.kind)
           (Shadow.violations ()));
      ignore (verify stack xemem))

let test_shadow_freed_access () =
  with_shadow (fun () ->
      (* Unprotected on purpose: EPT enforcement would suppress the
         stale store before the shadow ever saw it. *)
      let stack = Helpers.boot_stack ~config:Covirt.Config.none () in
      let p = Helpers.pisces stack in
      let before = Shadow.violation_count () in
      let r =
        match
          Covirt_pisces.Pisces.add_memory p stack.Helpers.enclave ~zone:0
            ~len:(4 * mib)
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "add_memory: %s" e
      in
      (match Covirt_pisces.Pisces.remove_memory p stack.Helpers.enclave r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "remove_memory: %s" e);
      (match
         Covirt_pisces.Pisces.run_guarded p (fun () ->
             Covirt_kitten.Kitten.store_addr (Helpers.ctx stack 1)
               (r.Covirt_hw.Region.base + 64))
       with
      | Ok () | Error _ -> ());
      Alcotest.(check bool) "freed access counted" true
        (Shadow.violation_count () > before);
      Alcotest.(check bool) "typed as freed access" true
        (List.exists
           (fun (v : Violation.t) -> v.kind = Violation.Shadow_freed_access)
           (Shadow.violations ())))

let test_shadow_corrupt_install () =
  with_shadow (fun () ->
      let stack, beta, _ = rich_stack () in
      let before = Shadow.violation_count () in
      (* The corrupt EPT write itself must trip the shadow, at install
         time — before any access through the mapping. *)
      (match
         Covirt_hw.Region.Set.to_list beta.Covirt_pisces.Enclave.memory
       with
      | r :: _ ->
          Covirt_hw.Ept.map_region
            (ept_of (instance_of stack stack.Helpers.enclave))
            (Covirt_hw.Region.make ~base:r.Covirt_hw.Region.base ~len:(2 * mib))
      | [] -> Alcotest.fail "beta has no memory");
      Alcotest.(check bool) "corrupt install flagged" true
        (Shadow.violation_count () > before);
      Alcotest.(check bool) "typed as corrupt mapping" true
        (List.exists
           (fun (v : Violation.t) ->
             match v.kind with
             | Violation.Shadow_corrupt_mapping _ -> true
             | _ -> false)
           (Shadow.violations ())))

(* Sanitizer reports surface through the controller as non-fatal fault
   reports, so campaigns see them without recovery kicking in. *)
let test_shadow_reports_nonfatal () =
  with_shadow (fun () ->
      let stack, beta, _ = rich_stack () in
      (match
         Covirt_hw.Region.Set.to_list beta.Covirt_pisces.Enclave.memory
       with
      | r :: _ ->
          Covirt_hw.Ept.map_region
            (ept_of (instance_of stack stack.Helpers.enclave))
            (Covirt_hw.Region.make ~base:r.Covirt_hw.Region.base ~len:(2 * mib))
      | [] -> ());
      let sanitizer_reports =
        List.filter
          (fun (r : Covirt.Fault_report.t) ->
            r.Covirt.Fault_report.kind = Covirt.Fault_report.Sanitizer)
          (Covirt.reports stack.Helpers.controller
             ~enclave_id:stack.Helpers.enclave.Covirt_pisces.Enclave.id)
      in
      Alcotest.(check bool) "sanitizer report recorded" true
        (sanitizer_reports <> []);
      Alcotest.(check bool) "never fatal" true
        (List.for_all
           (fun (r : Covirt.Fault_report.t) ->
             not r.Covirt.Fault_report.fatal)
           sanitizer_reports))

(* ------------------------------------------------------------------ *)
(* Whitelist lifecycle (the satellite fixes)                           *)

let test_revoke_single_dest () =
  let wl = Covirt.Whitelist.create ~enclave_cores:[ 1; 2 ] in
  Covirt.Whitelist.grant wl ~vector:0x40 ~dest:4;
  Covirt.Whitelist.grant wl ~vector:0x40 ~dest:5;
  Covirt.Whitelist.grant wl ~vector:0x41 ~dest:4;
  Covirt.Whitelist.revoke ~dest:4 wl ~vector:0x40;
  let permits dest vector =
    Covirt.Whitelist.permits wl ~dest ~vector ~kind:Covirt_hw.Apic.Fixed
  in
  Alcotest.(check bool) "revoked pair dropped" false (permits 4 0x40);
  Alcotest.(check bool) "same vector, other dest survives" true (permits 5 0x40);
  Alcotest.(check bool) "other vector, same dest survives" true (permits 4 0x41);
  Covirt.Whitelist.revoke wl ~vector:0x40;
  Alcotest.(check bool) "dest-less revoke drops the rest" false (permits 5 0x40);
  Alcotest.(check bool) "unrelated grant untouched" true (permits 4 0x41)

let test_revoke_through_pisces () =
  let stack, beta, xemem = rich_stack () in
  let p = Helpers.pisces stack in
  let alpha = stack.Helpers.enclave in
  let beta_bsp = Covirt_pisces.Enclave.bsp beta in
  (match Covirt_pisces.Pisces.grant_ipi_vector p alpha ~vector:0x50 ~peer_core:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "grant: %s" e);
  (match
     Covirt_pisces.Pisces.grant_ipi_vector p alpha ~vector:0x50
       ~peer_core:beta_bsp
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "grant: %s" e);
  (match
     Covirt_pisces.Pisces.revoke_ipi_vector ~peer_core:1 p alpha ~vector:0x50
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "revoke: %s" e);
  Alcotest.(check bool) "grant to beta bsp survives the narrowed revoke" true
    (List.mem (0x50, beta_bsp) alpha.Covirt_pisces.Enclave.granted_vectors);
  Alcotest.(check bool) "revoked grant gone" false
    (List.mem (0x50, 1) alpha.Covirt_pisces.Enclave.granted_vectors);
  (* Both grants went to live cores, so the verifier stays clean. *)
  Alcotest.(check bool) "still clean" true (Verifier.clean (verify stack xemem))

let test_destroy_prunes_grants () =
  let stack, beta, xemem = rich_stack () in
  let alpha_wl = (instance_of stack stack.Helpers.enclave).Covirt.Controller.whitelist in
  let beta_bsp = Covirt_pisces.Enclave.bsp beta in
  Alcotest.(check bool) "doorbell grant installed" true
    (List.exists (fun (_, d) -> d = beta_bsp) (Covirt.Whitelist.grants alpha_wl));
  Covirt_pisces.Pisces.destroy (Helpers.pisces stack) beta;
  Alcotest.(check bool) "grants toward the dead enclave pruned" false
    (List.exists (fun (_, d) -> d = beta_bsp) (Covirt.Whitelist.grants alpha_wl));
  Alcotest.(check (list (pair int int))) "dead enclave's own grants cleared" []
    beta.Covirt_pisces.Enclave.granted_vectors;
  let report = verify stack xemem in
  Alcotest.(check bool) "no stale grants survive destroy" true
    (List.for_all
       (fun (v : Violation.t) ->
         match v.kind with Violation.Stale_grant _ -> false | _ -> true)
       report.Verifier.violations)

(* The fault-injection campaign under the sanitizer: injected
   EPT/ownership corruption is *detected by the analyzer*, not just
   observed as crashes.  Unprotected configs let wild writes through,
   so some trial must trip the shadow. *)
let test_campaign_under_sanitizer () =
  let rows = Covirt_harness.Campaign.run ~trials:6 ~seed:11 ~sanitize:true () in
  Alcotest.(check bool) "some unprotected trial flagged" true
    (List.exists
       (fun r -> r.Covirt_harness.Campaign.sanitizer_flagged > 0)
       rows);
  Alcotest.(check bool) "sanitizer released after the campaign" false
    (Shadow.active ())

(* ------------------------------------------------------------------ *)
(* The golden transcript is bit-identical with the sanitizer ON.       *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_with_sanitizer () =
  with_shadow (fun () ->
      let expected = read_file "golden/translation.expected" in
      let actual = Covirt_harness.Golden.capture () in
      if not (String.equal expected actual) then
        Alcotest.fail
          "golden transcript changed under the sanitizer — shadow checking \
           must never charge simulated cycles or alter output")

(* Same gate with the capture's fleet spread over four domains: each
   shard arms its own domain's shadow state, and none of it may leak
   into the transcript. *)
let test_golden_with_sanitizer_under_fleet () =
  with_shadow (fun () ->
      let expected = read_file "golden/translation.expected" in
      let actual = Covirt_harness.Golden.capture ~domains:4 () in
      if not (String.equal expected actual) then
        Alcotest.fail
          "golden transcript changed under sanitizer + 4-domain fleet — \
           per-domain shadow state must not alter output")

let () =
  Alcotest.run "analysis"
    [
      ( "verifier",
        [
          Alcotest.test_case "clean stack verifies" `Quick test_clean_stack;
          Alcotest.test_case "registry blesses shares" `Quick
            test_registry_blesses_share;
          test_legit_ops_stay_clean;
          Alcotest.test_case "cross-owner leaf" `Quick test_cross_owner_leaf;
          Alcotest.test_case "unbacked leaf" `Quick test_unbacked_leaf;
          Alcotest.test_case "stale grant" `Quick test_stale_grant;
        ] );
      ( "shadow",
        [
          Alcotest.test_case "clean run, zero violations" `Quick
            test_shadow_clean_run;
          Alcotest.test_case "freed-region access" `Quick
            test_shadow_freed_access;
          Alcotest.test_case "corrupt install flagged at write time" `Quick
            test_shadow_corrupt_install;
          Alcotest.test_case "reports are non-fatal" `Quick
            test_shadow_reports_nonfatal;
          Alcotest.test_case "campaign detects corruption" `Quick
            test_campaign_under_sanitizer;
        ] );
      ( "whitelist",
        [
          Alcotest.test_case "revoke targets one destination" `Quick
            test_revoke_single_dest;
          Alcotest.test_case "narrowed revoke through pisces" `Quick
            test_revoke_through_pisces;
          Alcotest.test_case "destroy prunes peer grants" `Quick
            test_destroy_prunes_grants;
        ] );
      ( "golden",
        [
          Alcotest.test_case "bit-identical with sanitizer on" `Slow
            test_golden_with_sanitizer;
          Alcotest.test_case "bit-identical with sanitizer under fleet" `Slow
            test_golden_with_sanitizer_under_fleet;
        ] );
    ]
