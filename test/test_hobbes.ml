(* Hobbes runtime tests: launches, vector allocation, IPC channels,
   composite applications. *)

open Covirt_pisces
open Covirt_kitten
open Covirt_test_util

let mib = Covirt_sim.Units.mib

let test_launch_wires_everything () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  Alcotest.(check bool) "kernel registered" true
    (Option.is_some (Covirt_hobbes.Hobbes.kernel_of s.Helpers.hobbes s.Helpers.enclave));
  (* host_poke wired: a forwarded syscall completes *)
  let ctx = Helpers.ctx s 1 in
  Alcotest.(check int) "forwarding works" 5
    (Kitten.syscall ctx ~number:Syscall.nr_read ~arg:5)

let test_vector_allocation () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let h = s.Helpers.hobbes in
  (match Covirt_hobbes.Hobbes.alloc_ipi_vector h with
  | Ok v ->
      Alcotest.(check bool) "in app range" true (v >= 0x40 && v <= 0xdf);
      Covirt_hobbes.Hobbes.free_ipi_vector h v
  | Error e -> Alcotest.fail e);
  (* exhaust the space *)
  let rec drain n =
    match Covirt_hobbes.Hobbes.alloc_ipi_vector h with
    | Ok _ -> drain (n + 1)
    | Error _ -> n
  in
  let got = drain 0 in
  Alcotest.(check int) "vector space size" 160 got

(* The pool size is a counter kept beside the free list: it must track
   every alloc, free, repeated free and exhaustion exactly. *)
let test_free_vector_count () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let h = s.Helpers.hobbes in
  let count () = Covirt_hobbes.Hobbes.free_vector_count h in
  let alloc () =
    match Covirt_hobbes.Hobbes.alloc_ipi_vector h with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let n0 = count () in
  let a = alloc () in
  let b = alloc () in
  Alcotest.(check int) "two allocated" (n0 - 2) (count ());
  Covirt_hobbes.Hobbes.free_ipi_vector h a;
  Covirt_hobbes.Hobbes.free_ipi_vector h a;
  Alcotest.(check int) "a repeated free is a no-op" (n0 - 1) (count ());
  Covirt_hobbes.Hobbes.free_ipi_vector h b;
  Alcotest.(check int) "back to full" n0 (count ());
  let rec drain n =
    match Covirt_hobbes.Hobbes.alloc_ipi_vector h with
    | Ok _ -> drain (n + 1)
    | Error _ -> n
  in
  Alcotest.(check int) "count equals what can be allocated" n0 (drain 0);
  Alcotest.(check int) "empty" 0 (count ());
  Alcotest.(check int) "conserved" n0
    (count () + Covirt_hobbes.Hobbes.allocated_vector_count h)

let test_grant_pair () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let b_enclave, _ = Helpers.second_enclave s () in
  match
    Covirt_hobbes.Hobbes.grant_vector_pair s.Helpers.hobbes s.Helpers.enclave
      b_enclave
  with
  | Ok (va, vb) ->
      Alcotest.(check bool) "distinct" true (va <> vb);
      Alcotest.(check bool) "a granted" true
        (List.mem_assoc va s.Helpers.enclave.Enclave.granted_vectors);
      Alcotest.(check bool) "b granted" true
        (List.mem_assoc vb b_enclave.Enclave.granted_vectors)
  | Error e -> Alcotest.fail e

let test_ipc_channel () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let cons_enclave, cons_kitten = Helpers.second_enclave s () in
  match
    Covirt_hobbes.Ipc.connect s.Helpers.hobbes
      ~producer:(s.Helpers.enclave, s.Helpers.kitten)
      ~consumer:(cons_enclave, cons_kitten)
      ~name:"test-ring" ~ring_bytes:(64 * 1024)
  with
  | Error e -> Alcotest.fail e
  | Ok channel ->
      let ctx = Helpers.ctx s 1 in
      Covirt_hobbes.Ipc.send channel ctx ~words:16;
      Covirt_hobbes.Ipc.send channel ctx ~words:16;
      Alcotest.(check int) "doorbells received" 2
        (Covirt_hobbes.Ipc.receipts channel)

let test_ipc_under_covirt_whitelist () =
  (* The same channel built under full protection: the granted doorbell
     passes the whitelist, so IPC is unimpeded (zero-overhead IPC). *)
  let s = Helpers.boot_stack ~config:Covirt.Config.full () in
  let cons_enclave, cons_kitten = Helpers.second_enclave s () in
  match
    Covirt_hobbes.Ipc.connect s.Helpers.hobbes
      ~producer:(s.Helpers.enclave, s.Helpers.kitten)
      ~consumer:(cons_enclave, cons_kitten)
      ~name:"prot-ring" ~ring_bytes:(64 * 1024)
  with
  | Error e -> Alcotest.fail e
  | Ok channel ->
      let ctx = Helpers.ctx s 1 in
      Covirt_hobbes.Ipc.send channel ctx ~words:8;
      Alcotest.(check int) "delivered through whitelist" 1
        (Covirt_hobbes.Ipc.receipts channel);
      Alcotest.(check int) "nothing dropped" 0
        (Covirt.dropped_ipis s.Helpers.controller
           ~enclave_id:s.Helpers.enclave.Enclave.id)

let test_app_composition () =
  let s = Helpers.boot_stack ~config:Covirt.Config.full () in
  let sink_enclave, _sink_kitten = Helpers.second_enclave s () in
  let produced = ref 0 in
  let app =
    {
      Covirt_hobbes.App.app_name = "sim-pipeline";
      components =
        [
          Covirt_hobbes.App.component ~name:"producer" s.Helpers.enclave
            (fun ctx channels ->
              List.iter
                (fun ch ->
                  Covirt_hobbes.Ipc.send ch ctx ~words:32;
                  incr produced)
                channels);
          Covirt_hobbes.App.component ~name:"consumer" sink_enclave
            (fun _ctx _channels -> ());
        ];
      wires =
        [
          {
            Covirt_hobbes.App.from_component = "producer";
            to_component = "consumer";
            ring_bytes = 16 * 1024;
          };
        ];
    }
  in
  (match Covirt_hobbes.App.launch s.Helpers.hobbes app with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "producer ran" 1 !produced

let test_app_unknown_component () =
  let s = Helpers.boot_stack ~config:Covirt.Config.native () in
  let app =
    {
      Covirt_hobbes.App.app_name = "broken";
      components = [];
      wires =
        [
          {
            Covirt_hobbes.App.from_component = "ghost";
            to_component = "ghost2";
            ring_bytes = 4096;
          };
        ];
    }
  in
  Alcotest.(check bool) "launch fails" true
    (Result.is_error (Covirt_hobbes.App.launch s.Helpers.hobbes app));
  ignore mib

(* ------------------------------------------------------------------ *)
(* Teardown indexes.  Destroy finds what it must scrub through indexes
   (grants by destination core and by vector in Pisces, whitelist
   grants by destination core in the controller, segments by enclave
   in the name service, the live registries by id).  Each must agree,
   after every op, with the whole-registry scan it replaced; the scans
   below are that code, kept as the oracle. *)

module Ns = Covirt_xemem.Name_service

let ids es = List.map (fun (e : Enclave.t) -> e.Enclave.id) es

let scan_grantors_to ps cores =
  List.filter
    (fun (e : Enclave.t) ->
      List.exists (fun (_, d) -> List.mem d cores) e.Enclave.granted_vectors)
    (Pisces.enclaves ps)

let scan_vector_grantors ps vector =
  List.filter
    (fun (e : Enclave.t) ->
      List.exists (fun (v, _) -> v = vector) e.Enclave.granted_vectors)
    (Pisces.enclaves ps)

let scan_granting_instances ctl cores =
  List.filter
    (fun (i : Covirt.Controller.instance) ->
      List.exists
        (fun (_, d) -> List.mem d cores)
        (Covirt.Whitelist.grants i.Covirt.Controller.whitelist))
    (Covirt.Controller.instances ctl)

let scan_segids ns id =
  List.filter_map
    (fun (seg : Ns.segment) ->
      if seg.Ns.exporter = Ns.Enclave_export id || List.mem id seg.Ns.attachers
      then Some seg.Ns.segid
      else None)
    (Ns.segments ns)

let index_cores = 12

(* Every index against its scan, plus the vector-space and verifier
   invariants; [max_id] bounds the enclave ids ever handed out. *)
let check_indexes h ctl ~max_id ~where =
  let ps = Covirt_hobbes.Hobbes.pisces h in
  let ns = Covirt_xemem.Xemem.registry (Covirt_hobbes.Hobbes.xemem h) in
  let same what expected got =
    if expected <> got then
      Alcotest.failf "%s: %s: index [%s] <> scan [%s]" where what
        (String.concat ";" (List.map string_of_int got))
        (String.concat ";" (List.map string_of_int expected))
  in
  let live = ids (Pisces.enclaves ps) in
  same "registry newest first" (List.sort (fun a b -> compare b a) live) live;
  same "controller instances" live
    (List.map
       (fun (i : Covirt.Controller.instance) -> i.Covirt.Controller.enclave.Enclave.id)
       (Covirt.Controller.instances ctl));
  for id = 1 to max_id do
    same (Printf.sprintf "find_enclave %d" id)
      (if List.mem id live then [ id ] else [])
      (match Pisces.find_enclave ps id with Some e -> [ e.Enclave.id ] | None -> []);
    same (Printf.sprintf "segids_of %d" id) (scan_segids ns id)
      (Ns.segids_of ns ~enclave:id)
  done;
  let all_cores = List.init index_cores Fun.id in
  List.iter
    (fun cores ->
      let what = "cores " ^ String.concat "," (List.map string_of_int cores) in
      same ("grantors_to " ^ what)
        (ids (scan_grantors_to ps cores))
        (ids (Pisces.grantors_to ps ~cores));
      let inst_ids l =
        List.map
          (fun (i : Covirt.Controller.instance) ->
            i.Covirt.Controller.enclave.Enclave.id)
          l
      in
      same ("granting_instances " ^ what)
        (inst_ids (scan_granting_instances ctl cores))
        (inst_ids (Covirt.Controller.granting_instances ctl ~cores)))
    (all_cores :: List.map (fun c -> [ c ]) all_cores);
  for vector = 0x40 to 0xdf do
    same (Printf.sprintf "vector_grantors 0x%x" vector)
      (ids (scan_vector_grantors ps vector))
      (ids (Pisces.vector_grantors ps ~vector))
  done;
  Alcotest.(check int) (where ^ ": vector space conserved") 160
    (Covirt_hobbes.Hobbes.free_vector_count h
    + Covirt_hobbes.Hobbes.allocated_vector_count h);
  let report = Covirt_analysis.Verifier.run ~registry:ns ctl in
  if not (Covirt_analysis.Verifier.clean report) then
    Alcotest.failf "%s: verifier found %d violations" where
      (List.length report.Covirt_analysis.Verifier.violations)

(* A 6-tenant mem+ipi node on cores 1..10 of 12 (zone = core / 6). *)
let index_node () =
  let h =
    Covirt_hobbes.Hobbes.create_node ~seed:5 ~cores_per_zone:(index_cores / 2)
      ~mem_mib_per_zone:512 ()
  in
  let ctl = Covirt.enable (Covirt_hobbes.Hobbes.pisces h) ~config:Covirt.Config.mem_ipi in
  let tenants = Hashtbl.create 16 in
  let launch core =
    match
      Covirt_hobbes.Hobbes.launch_enclave h
        ~name:(Printf.sprintf "t%d" core)
        ~cores:[ core ]
        ~mem:[ (core / (index_cores / 2), 24 * mib) ]
        ()
    with
    | Ok ek -> Hashtbl.replace tenants core ek
    | Error e -> Alcotest.failf "launch on core %d: %s" core e
  in
  List.iter launch [ 1; 2; 3; 7; 8; 9 ];
  (h, ctl, tenants, launch)

let pick l i = List.nth l (i mod List.length l)

let run_index_ops ops =
  let h, ctl, tenants, launch = index_node () in
  let ps = Covirt_hobbes.Hobbes.pisces h in
  let xem = Covirt_hobbes.Hobbes.xemem h in
  let ns = Covirt_xemem.Xemem.registry xem in
  let segs = ref 0 in
  let live () = List.sort compare (Hashtbl.fold (fun c _ acc -> c :: acc) tenants []) in
  let tenant i = Hashtbl.find tenants (pick (live ()) i) in
  List.iteri
    (fun n (op, a, b) ->
      let cores = live () in
      (match op with
      | 0 ->
          let free = List.filter (fun c -> not (List.mem c cores)) (List.init 10 succ) in
          if free <> [] then launch (pick free a)
      | 1 when cores <> [] ->
          let e, _ = tenant a in
          Pisces.destroy ps e;
          Hashtbl.remove tenants (Enclave.bsp e)
      | 2 when cores <> [] -> (
          (* a wild write into host memory: contained, then reclaimed *)
          let e, k = tenant a in
          match
            Pisces.run_guarded ps (fun () ->
                Kitten.store_addr (Kitten.context k ~core:(Enclave.bsp e)) 4096)
          with
          | Error _ -> Hashtbl.remove tenants (Enclave.bsp e)
          | Ok () -> Alcotest.fail "wild write not contained")
      | 3 when List.length cores >= 2 ->
          let ea, _ = tenant a in
          let eb, _ = tenant (a + 1 + (b mod (List.length cores - 1))) in
          ignore (Covirt_hobbes.Hobbes.grant_vector_pair h ea eb)
      | 4 when cores <> [] -> (
          let e, _ = tenant a in
          match e.Enclave.granted_vectors with
          | [] -> ()
          | grants ->
              let v, d = pick grants b in
              let peer_core = if b mod 2 = 0 then Some d else None in
              ignore (Pisces.revoke_ipi_vector ?peer_core ps e ~vector:v))
      | 5 when cores <> [] ->
          let e, _ = tenant a in
          incr segs;
          ignore
            (Covirt_hobbes.Hobbes.export_window h e
               ~name:(Printf.sprintf "seg%d" !segs)
               ~offset:(b mod 16 * mib)
               ~len:(4096 * (1 + (a mod 4))))
      | 6 when cores <> [] && Ns.segments ns <> [] ->
          let e, _ = tenant a in
          let seg = pick (Ns.segments ns) b in
          ignore (Covirt_xemem.Xemem.attach xem e ~name:seg.Ns.name)
      | 7 when cores <> [] -> (
          let e, _ = tenant a in
          match scan_segids ns e.Enclave.id with
          | [] -> ()
          | segids -> (
              match Ns.lookup_segid ns ~segid:(pick segids b) with
              | Some seg -> ignore (Covirt_xemem.Xemem.detach xem e ~name:seg.Ns.name)
              | None -> ()))
      | _ -> ());
      check_indexes h ctl ~max_id:(6 + n + 1)
        ~where:(Printf.sprintf "after op %d (%d)" n op))
    ops;
  true

let prop_indexes_match_scans =
  Helpers.qtest ~count:40 "indexes equal the registry scans after every op"
    QCheck2.Gen.(
      list_size (int_range 10 40)
        (triple (int_range 0 7) (int_range 0 1000) (int_range 0 1000)))
    run_index_ops

(* Destroying an enclave that two survivors grant doorbells to revokes
   both grants, returns each runtime-allocated vector to the pool
   exactly once, and leaves the survivors' other grants alone. *)
let test_destroy_revokes_grants_to_dead_core () =
  let h, ctl, tenants, _ = index_node () in
  let ps = Covirt_hobbes.Hobbes.pisces h in
  let enclave core = fst (Hashtbl.find tenants core) in
  let a = enclave 1 and b = enclave 2 and dead = enclave 7 in
  let pair x y =
    match Covirt_hobbes.Hobbes.grant_vector_pair h x y with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let va, vda = pair a dead in
  let vb, vdb = pair b dead in
  let vab, vba = pair a b in
  let free0 = Covirt_hobbes.Hobbes.free_vector_count h in
  let allocated0 = Covirt_hobbes.Hobbes.allocated_vector_count h in
  Pisces.destroy ps dead;
  Alcotest.(check (list (pair int int))) "a keeps only its grant to b"
    [ (vab, Enclave.bsp b) ] a.Enclave.granted_vectors;
  Alcotest.(check (list (pair int int))) "b keeps only its grant to a"
    [ (vba, Enclave.bsp a) ] b.Enclave.granted_vectors;
  let whitelist e =
    match Covirt.Controller.instance_for ctl ~enclave_id:e.Enclave.id with
    | Some i -> Covirt.Whitelist.grants i.Covirt.Controller.whitelist
    | None -> Alcotest.fail "no instance"
  in
  Alcotest.(check (list (pair int int))) "a's whitelist" [ (vab, Enclave.bsp b) ]
    (whitelist a);
  Alcotest.(check (list (pair int int))) "b's whitelist" [ (vba, Enclave.bsp a) ]
    (whitelist b);
  Alcotest.(check int) "four vectors back in the pool, once each" (free0 + 4)
    (Covirt_hobbes.Hobbes.free_vector_count h);
  Alcotest.(check int) "four fewer allocated" (allocated0 - 4)
    (Covirt_hobbes.Hobbes.allocated_vector_count h);
  let rec drain acc =
    match Covirt_hobbes.Hobbes.alloc_ipi_vector h with
    | Ok v -> drain (v :: acc)
    | Error _ -> acc
  in
  let drained = drain [] in
  Alcotest.(check int) "the pool holds no duplicate" (List.length drained)
    (List.length (List.sort_uniq compare drained));
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "0x%x freed" v) true (List.mem v drained))
    [ va; vda; vb; vdb ];
  Alcotest.(check (list int)) "no grantor left towards the dead core" []
    (ids (Pisces.grantors_to ps ~cores:dead.Enclave.cores))

let () =
  Alcotest.run "hobbes"
    [
      ( "runtime",
        [
          Alcotest.test_case "launch wiring" `Quick test_launch_wires_everything;
          Alcotest.test_case "vector allocation" `Quick test_vector_allocation;
          Alcotest.test_case "free vector count" `Quick test_free_vector_count;
          Alcotest.test_case "grant pair" `Quick test_grant_pair;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "channel" `Quick test_ipc_channel;
          Alcotest.test_case "under covirt" `Quick test_ipc_under_covirt_whitelist;
        ] );
      ( "apps",
        [
          Alcotest.test_case "composition" `Quick test_app_composition;
          Alcotest.test_case "unknown component" `Quick test_app_unknown_component;
        ] );
      ( "teardown indexes",
        [
          prop_indexes_match_scans;
          Alcotest.test_case "destroy revokes grants to the dead core" `Quick
            test_destroy_revokes_grants_to_dead_core;
        ] );
    ]
