(* XEMEM tests: name service, export validation, attach/detach
   bookkeeping, blocked-caller accounting, reclaim (with and without
   the cleanup bug). *)

open Covirt_hw
open Covirt_pisces
open Covirt_kitten
open Covirt_test_util

let mib = Covirt_sim.Units.mib

(* Two native enclaves: t0 (cores 1,2) and an exporter on core 3. *)
let two_enclaves () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let exporter, exporter_kitten = Helpers.second_enclave s () in
  (s, exporter, exporter_kitten)

let export_segment s exporter exporter_kitten ~name ~bytes =
  match Kitten.kalloc exporter_kitten ~bytes with
  | Error e -> Alcotest.fail e
  | Ok base -> (
      let xemem = Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes in
      match
        Covirt_xemem.Xemem.export xemem
          ~exporter:(Covirt_xemem.Name_service.Enclave_export exporter.Enclave.id)
          ~name
          ~pages:[ Region.make ~base ~len:bytes ]
      with
      | Ok segid -> (base, segid)
      | Error e -> Alcotest.fail e)

let test_name_service_basics () =
  let ns = Covirt_xemem.Name_service.create () in
  let pages = [ Region.make ~base:0 ~len:4096 ] in
  (match
     Covirt_xemem.Name_service.register ns ~name:"a"
       ~exporter:Covirt_xemem.Name_service.Host_export ~pages
   with
  | Ok s -> Alcotest.(check string) "name kept" "a" s.Covirt_xemem.Name_service.name
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "duplicate rejected" true
    (Result.is_error
       (Covirt_xemem.Name_service.register ns ~name:"a"
          ~exporter:Covirt_xemem.Name_service.Host_export ~pages));
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error
       (Covirt_xemem.Name_service.register ns ~name:"b"
          ~exporter:Covirt_xemem.Name_service.Host_export ~pages:[]));
  Alcotest.(check bool) "unaligned rejected" true
    (Result.is_error
       (Covirt_xemem.Name_service.register ns ~name:"c"
          ~exporter:Covirt_xemem.Name_service.Host_export
          ~pages:[ Region.make ~base:100 ~len:50 ]));
  Alcotest.(check bool) "lookup" true
    (Option.is_some (Covirt_xemem.Name_service.lookup ns ~name:"a"))

let test_export_ownership_enforced () =
  let s, exporter, _ = two_enclaves () in
  let xemem = Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes in
  (* exporting memory the exporter does not own must fail *)
  Alcotest.(check bool) "foreign export rejected" true
    (Result.is_error
       (Covirt_xemem.Xemem.export xemem
          ~exporter:(Covirt_xemem.Name_service.Enclave_export exporter.Enclave.id)
          ~name:"stolen"
          ~pages:[ Region.make ~base:0 ~len:4096 ]))

let ownership_error = Error "exporter does not own all pages of the segment"

(* The exporter's boot block plus a hot-added block right after it. *)
let hot_added () =
  let s, exporter, _ = two_enclaves () in
  let boot = List.hd (Region.Set.to_list exporter.Enclave.memory) in
  let hot =
    match
      Pisces.add_memory (Helpers.pisces s) exporter ~zone:1 ~len:(4 * mib)
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "hot-add is adjacent" (Region.limit boot) hot.Region.base;
  (s, exporter, boot, hot)

let export_window s exporter ~name pages =
  Covirt_xemem.Xemem.export
    (Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes)
    ~exporter:(Covirt_xemem.Name_service.Enclave_export exporter.Enclave.id)
    ~name ~pages

let check_export = Alcotest.(check (result int string))

let test_export_across_hot_add () =
  let s, exporter, boot, _ = hot_added () in
  let window = Region.make ~base:(Region.limit boot - (2 * mib)) ~len:(4 * mib) in
  match export_window s exporter ~name:"across" [ window ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "window across boot and hot-added memory: %s" e

let test_export_rejects_foreign_frames () =
  let s, exporter, boot, hot = hot_added () in
  let page = Addr.page_size_4k in
  let owner_at = Phys_mem.owner_at s.Helpers.machine.Machine.mem in
  Alcotest.(check bool) "t0 owns the page below the boot block" true
    (Owner.equal (owner_at (boot.Region.base - page))
       (Owner.Enclave s.Helpers.enclave.Enclave.id));
  Alcotest.(check bool) "free above the hot-add" true
    (Owner.equal (owner_at (Region.limit hot)) Owner.Free);
  check_export "touches the neighbour" ownership_error
    (export_window s exporter ~name:"neighbour"
       [ Region.make ~base:(boot.Region.base - page) ~len:(2 * mib) ]);
  check_export "runs past the hot-add into free memory" ownership_error
    (export_window s exporter ~name:"past"
       [ Region.make ~base:(Region.limit hot - mib) ~len:(2 * mib) ]);
  check_export "an owned region plus host memory" ownership_error
    (export_window s exporter ~name:"host"
       [ Region.make ~base:boot.Region.base ~len:(2 * mib);
         Region.make ~base:0 ~len:(2 * mib) ]);
  (match Pisces.remove_memory (Helpers.pisces s) exporter hot with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_export "spans the freed hot-add" ownership_error
    (export_window s exporter ~name:"freed"
       [ Region.make ~base:(Region.limit boot - mib) ~len:(2 * mib) ])

let test_attach_detach_flow () =
  let s, exporter, exporter_kitten = two_enclaves () in
  let base, segid =
    export_segment s exporter exporter_kitten ~name:"ring" ~bytes:(4 * mib)
  in
  let xemem = Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes in
  (match Covirt_xemem.Xemem.attach xemem s.Helpers.enclave ~name:"ring" with
  | Ok (addr, len) ->
      Alcotest.(check int) "identity address" base addr;
      Alcotest.(check int) "length" (4 * mib) len
  | Error e -> Alcotest.fail e);
  (* attacher's kernel now believes the segment usable *)
  Alcotest.(check bool) "attacher believes" true
    (Memmap.believes_usable (Kitten.memmap s.Helpers.kitten) base);
  (* name service bookkeeping *)
  let ns = Covirt_xemem.Xemem.registry xemem in
  (match Covirt_xemem.Name_service.lookup_segid ns ~segid with
  | Some seg ->
      Alcotest.(check (list int)) "attacher listed"
        [ s.Helpers.enclave.Enclave.id ]
        seg.Covirt_xemem.Name_service.attachers
  | None -> Alcotest.fail "segment vanished");
  (match Covirt_xemem.Xemem.detach xemem s.Helpers.enclave ~name:"ring" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "belief revoked" true
    (not (Memmap.believes_usable (Kitten.memmap s.Helpers.kitten) base));
  Alcotest.(check int) "attach count" 1 (Covirt_xemem.Xemem.attach_count xemem)

let test_attach_charges_caller () =
  let s, exporter, exporter_kitten = two_enclaves () in
  let _ = export_segment s exporter exporter_kitten ~name:"big" ~bytes:(64 * mib) in
  let caller = Machine.cpu s.Helpers.machine 1 in
  let before = Cpu.rdtsc caller in
  let xemem = Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes in
  (match Covirt_xemem.Xemem.attach xemem s.Helpers.enclave ~name:"big" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let blocked = Cpu.rdtsc caller - before in
  (* 64 MiB = 16384 frames at ~35 cycles each: substantial blocked time *)
  Alcotest.(check bool) "caller blocked for host work" true (blocked > 100_000)

let test_attach_latency_scales_with_size () =
  let measure bytes =
    let s, exporter, exporter_kitten = two_enclaves () in
    let _ = export_segment s exporter exporter_kitten ~name:"seg" ~bytes in
    let caller = Machine.cpu s.Helpers.machine 1 in
    let before = Cpu.rdtsc caller in
    let xemem = Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes in
    (match Covirt_xemem.Xemem.attach xemem s.Helpers.enclave ~name:"seg" with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    Cpu.rdtsc caller - before
  in
  let small = measure (4 * mib) and big = measure (32 * mib) in
  Alcotest.(check bool) "8x pages cost more" true (big > 4 * small)

let test_attach_unknown_name () =
  let s, _, _ = two_enclaves () in
  let xemem = Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes in
  Alcotest.(check bool) "unknown name" true
    (Result.is_error (Covirt_xemem.Xemem.attach xemem s.Helpers.enclave ~name:"nope"))

let test_host_attach () =
  let s, exporter, exporter_kitten = two_enclaves () in
  let base, _ = export_segment s exporter exporter_kitten ~name:"h" ~bytes:(4 * mib) in
  let xemem = Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes in
  match Covirt_xemem.Xemem.attach_host xemem ~name:"h" with
  | Ok (addr, _) -> Alcotest.(check int) "identity" base addr
  | Error e -> Alcotest.fail e

let test_reclaim_clean () =
  let s, exporter, exporter_kitten = two_enclaves () in
  let base, _ = export_segment s exporter exporter_kitten ~name:"r" ~bytes:(4 * mib) in
  let xemem = Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes in
  (match Covirt_xemem.Xemem.attach xemem s.Helpers.enclave ~name:"r" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Covirt_xemem.Xemem.reclaim_export xemem ~name:"r" () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* clean reclaim: attacher was notified, belief revoked *)
  Alcotest.(check bool) "belief revoked" true
    (not (Memmap.believes_usable (Kitten.memmap s.Helpers.kitten) base));
  Alcotest.(check bool) "segment gone" true
    (Covirt_xemem.Name_service.lookup (Covirt_xemem.Xemem.registry xemem) ~name:"r"
    = None)

let test_reclaim_cleanup_bug_leaves_stale_belief () =
  let s, exporter, exporter_kitten = two_enclaves () in
  let base, _ = export_segment s exporter exporter_kitten ~name:"war" ~bytes:(4 * mib) in
  let xemem = Covirt_hobbes.Hobbes.xemem s.Helpers.hobbes in
  (match Covirt_xemem.Xemem.attach xemem s.Helpers.enclave ~name:"war" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Covirt_xemem.Xemem.reclaim_export xemem ~name:"war" ~simulate_cleanup_bug:true () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* the paper's war story: the co-kernel still believes the mapping *)
  Alcotest.(check bool) "stale belief persists" true
    (Memmap.believes_usable (Kitten.memmap s.Helpers.kitten) base);
  (* but the host's authoritative view has dropped it *)
  Alcotest.(check bool) "host view dropped" true
    (not (Region.Set.mem s.Helpers.enclave.Enclave.shared base))

let () =
  Alcotest.run "xemem"
    [
      ( "name_service",
        [
          Alcotest.test_case "basics" `Quick test_name_service_basics;
          Alcotest.test_case "ownership" `Quick test_export_ownership_enforced;
          Alcotest.test_case "export across hot-add" `Quick
            test_export_across_hot_add;
          Alcotest.test_case "export rejects foreign frames" `Quick
            test_export_rejects_foreign_frames;
        ] );
      ( "attach",
        [
          Alcotest.test_case "flow" `Quick test_attach_detach_flow;
          Alcotest.test_case "charges caller" `Quick test_attach_charges_caller;
          Alcotest.test_case "latency scales" `Quick
            test_attach_latency_scales_with_size;
          Alcotest.test_case "unknown name" `Quick test_attach_unknown_name;
          Alcotest.test_case "host attach" `Quick test_host_attach;
        ] );
      ( "reclaim",
        [
          Alcotest.test_case "clean" `Quick test_reclaim_clean;
          Alcotest.test_case "cleanup bug" `Quick
            test_reclaim_cleanup_bug_leaves_stale_belief;
        ] );
    ]
