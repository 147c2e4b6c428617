(* Pisces framework tests: enclave lifecycle, control transactions,
   hook ordering, syscall servicing, teardown. *)

open Covirt_hw
open Covirt_pisces
open Covirt_test_util

let mib = Covirt_sim.Units.mib

let framework () =
  let machine = Helpers.small_machine () in
  (machine, Pisces.create machine ~host_core:0)

(* A stub kernel that acks every message and reports ready. *)
let stub_kernel ?(on_msg = fun _ -> ()) () =
  {
    Pisces.kernel_name = "stub";
    boot_core =
      (fun machine enclave cpu ~bsp _params ->
        if bsp then begin
          enclave.Enclave.msg_handler <-
            Some
              (fun msg ->
                on_msg msg;
                match msg with
                | Message.Syscall_reply _ -> ()
                | other ->
                    Ctrl_channel.send_to_host machine ~enclave_cpu:cpu
                      enclave.Enclave.channel
                      (Message.Ack { seq = Message.seq_of_host_msg other }));
          Ctrl_channel.send_to_host machine ~enclave_cpu:cpu
            enclave.Enclave.channel Message.Ready
        end);
  }

let launch ?(cores = [ 1; 2 ]) ?(mem = [ (0, 128 * mib) ]) ?on_msg (m, p) =
  match Pisces.create_enclave p ~name:"e" ~cores ~mem () with
  | Error e -> Alcotest.fail e
  | Ok enclave -> (
      match Pisces.boot p enclave ~kernel:(stub_kernel ?on_msg ()) with
      | Ok () -> enclave
      | Error e -> Alcotest.fail e)
  |> fun enclave ->
  ignore m;
  enclave

let test_create_validation () =
  let _, p = framework () in
  Alcotest.(check bool) "host core rejected" true
    (Result.is_error
       (Pisces.create_enclave p ~name:"x" ~cores:[ 0 ] ~mem:[ (0, mib) ] ()));
  Alcotest.(check bool) "bad core rejected" true
    (Result.is_error
       (Pisces.create_enclave p ~name:"x" ~cores:[ 99 ] ~mem:[ (0, mib) ] ()));
  Alcotest.(check bool) "huge mem rejected" true
    (Result.is_error
       (Pisces.create_enclave p ~name:"x" ~cores:[ 1 ]
          ~mem:[ (0, 1024 * 1024 * mib) ] ()))

let test_core_exclusivity () =
  let mp = framework () in
  let _e1 = launch ~cores:[ 1 ] mp in
  let _, p = mp in
  Alcotest.(check bool) "core already assigned" true
    (Result.is_error
       (Pisces.create_enclave p ~name:"y" ~cores:[ 1 ] ~mem:[ (0, mib) ] ()))

let test_boot_lifecycle () =
  let (machine, p) as mp = framework () in
  let enclave = launch mp in
  Alcotest.(check bool) "running" true (Enclave.is_running enclave);
  (* cores re-owned *)
  Alcotest.(check bool) "core owned" true
    (Owner.equal (Machine.cpu machine 1).Cpu.owner (Owner.Enclave enclave.Enclave.id));
  (* boot params transparent: assigned memory matches *)
  (match enclave.Enclave.boot_params with
  | Some params ->
      Alcotest.(check int) "mem in params" (128 * mib)
        (List.fold_left (fun a r -> a + r.Region.len) 0
           params.Boot_params.assigned_memory)
  | None -> Alcotest.fail "no boot params");
  (* double boot rejected *)
  Alcotest.(check bool) "double boot" true
    (Result.is_error (Pisces.boot p enclave ~kernel:(stub_kernel ())))

let test_add_remove_memory () =
  let (machine, p) as mp = framework () in
  let received = ref [] in
  let enclave = launch ~on_msg:(fun m -> received := m :: !received) mp in
  match Pisces.add_memory p enclave ~zone:1 ~len:(32 * mib) with
  | Error e -> Alcotest.fail e
  | Ok region ->
      Alcotest.(check bool) "tracked" true
        (Region.Set.mem enclave.Enclave.memory region.Region.base);
      Alcotest.(check bool) "kernel told" true
        (List.exists
           (function Message.Add_memory _ -> true | _ -> false)
           !received);
      (match Pisces.remove_memory p enclave region with
      | Error e -> Alcotest.fail e
      | Ok () ->
          Alcotest.(check bool) "untracked" true
            (not (Region.Set.mem enclave.Enclave.memory region.Region.base));
          Alcotest.(check bool) "released to host pool" true
            (Owner.equal
               (Phys_mem.owner_at machine.Machine.mem region.Region.base)
               Owner.Free))

let test_hook_ordering_on_map () =
  (* pre_memory_map must fire before the kernel receives the list. *)
  let _, p = framework () in
  let events = ref [] in
  let hooks = Pisces.hooks p in
  hooks.Hooks.pre_memory_map <- [ (fun _ _ -> events := `Hook :: !events) ];
  let enclave =
    match Pisces.create_enclave p ~name:"e" ~cores:[ 1 ] ~mem:[ (0, 32 * mib) ] () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  (match
     Pisces.boot p enclave
       ~kernel:(stub_kernel ~on_msg:(fun _ -> events := `Kernel :: !events) ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Pisces.add_memory p enclave ~zone:0 ~len:(16 * mib) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "hook strictly before kernel" true
    (match List.rev !events with `Hook :: `Kernel :: _ -> true | _ -> false)

let test_hook_ordering_on_unmap () =
  (* post_memory_unmap must fire after the kernel ack, before release. *)
  let machine, p = framework () in
  let enclave =
    match Pisces.create_enclave p ~name:"e" ~cores:[ 1 ] ~mem:[ (0, 32 * mib) ] () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  (match Pisces.boot p enclave ~kernel:(stub_kernel ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let region =
    match Pisces.add_memory p enclave ~zone:0 ~len:(16 * mib) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let owner_at_hook = ref Owner.Free in
  (Pisces.hooks p).Hooks.post_memory_unmap <-
    [ (fun _ r -> owner_at_hook := Phys_mem.owner_at machine.Machine.mem r.Region.base) ];
  (match Pisces.remove_memory p enclave region with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* at hook time the frames were still enclave-owned (not yet released) *)
  Alcotest.(check bool) "frames not yet released at hook" true
    (Owner.equal !owner_at_hook (Owner.Enclave enclave.Enclave.id))

let test_shared_mapping_paths () =
  let _, p = framework () in
  let enclave =
    match Pisces.create_enclave p ~name:"e" ~cores:[ 1 ] ~mem:[ (0, 32 * mib) ] () with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  (match Pisces.boot p enclave ~kernel:(stub_kernel ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let pages = [ Region.make ~base:(512 * mib) ~len:(4 * mib) ] in
  (match Pisces.map_shared p enclave ~segid:7 ~pages with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "shared tracked" true
    (Region.Set.mem enclave.Enclave.shared (512 * mib));
  (match Pisces.unmap_shared p enclave ~segid:7 ~pages () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "shared removed" true
    (Region.Set.is_empty enclave.Enclave.shared)

let test_vector_grant_revoke () =
  let mp = framework () in
  let _, p = mp in
  let enclave = launch ~cores:[ 1 ] mp in
  (match Pisces.grant_ipi_vector p enclave ~vector:0x41 ~peer_core:3 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list (pair int int))) "granted" [ (0x41, 3) ]
    enclave.Enclave.granted_vectors;
  (match Pisces.revoke_ipi_vector p enclave ~vector:0x41 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list (pair int int))) "revoked" []
    enclave.Enclave.granted_vectors

let test_syscall_service () =
  let (machine, p) as mp = framework () in
  let enclave = launch ~cores:[ 1 ] mp in
  Pisces.set_syscall_handler p (fun ~number ~arg -> number + arg);
  (* the "kernel" sends a request, host services it, reply delivered *)
  let cpu = Machine.cpu machine 1 in
  Ctrl_channel.send_to_host machine ~enclave_cpu:cpu enclave.Enclave.channel
    (Message.Syscall_request { seq = -1; number = 1; arg = 41 });
  let replies = ref [] in
  let old_handler = enclave.Enclave.msg_handler in
  enclave.Enclave.msg_handler <-
    Some
      (fun msg ->
        match msg with
        | Message.Syscall_reply { ret; _ } -> replies := ret :: !replies
        | other -> (match old_handler with Some h -> h other | None -> ()));
  let serviced = Pisces.service_channel p enclave in
  Alcotest.(check int) "one serviced" 1 serviced;
  Alcotest.(check (list int)) "reply value" [ 42 ] !replies

let test_destroy_reclaims () =
  let (machine, p) as mp = framework () in
  let enclave = launch mp in
  let mem_region =
    match Region.Set.to_list enclave.Enclave.memory with
    | r :: _ -> r
    | [] -> Alcotest.fail "no memory"
  in
  let destroyed = ref 0 in
  (Pisces.hooks p).Hooks.on_enclave_destroyed <- [ (fun _ -> incr destroyed) ];
  Pisces.destroy p enclave;
  Alcotest.(check bool) "stopped" true (enclave.Enclave.state = Enclave.Stopped);
  Alcotest.(check int) "hook fired" 1 !destroyed;
  Alcotest.(check bool) "memory freed" true
    (Owner.equal (Phys_mem.owner_at machine.Machine.mem mem_region.Region.base) Owner.Free);
  Alcotest.(check bool) "cores back to host" true
    (Owner.equal (Machine.cpu machine 1).Cpu.owner Owner.Host)

(* Reproducer for a stale-TLB isolation escape: teardown used to leave
   the dead enclave's translations in its cores' TLBs, so a relaunched
   tenant's wild write to a page its earlier incarnation touched hit
   the stale entry and landed in the neighbour now holding that page,
   with no EPT check. *)
let test_teardown_flushes_stale_tlb () =
  let s = Helpers.boot_stack ~cores:[ 1 ] ~mem:[ (0, 64 * mib) ] () in
  let p = Helpers.pisces s in
  let old = List.hd (Region.Set.to_list s.Helpers.enclave.Enclave.memory) in
  let page = old.Region.base + mib in
  Covirt_kitten.Kitten.store_addr (Helpers.ctx s 1) page;
  Pisces.destroy p s.Helpers.enclave;
  let neighbour, neighbour_kitten =
    Helpers.second_enclave s ~name:"neighbour" ~cores:[ 3 ]
      ~mem:[ (0, 64 * mib) ] ()
  in
  Alcotest.(check bool) "neighbour holds the old page" true
    (Region.Set.mem neighbour.Enclave.memory page);
  let _, tenant_kitten =
    Helpers.second_enclave s ~name:"relaunch" ~cores:[ 1 ]
      ~mem:[ (0, 64 * mib) ] ()
  in
  (match
     Pisces.run_guarded p (fun () ->
         Covirt_kitten.Kitten.store_addr
           (Covirt_kitten.Kitten.context tenant_kitten ~core:1)
           page)
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wild write through a stale TLB entry not contained");
  Alcotest.(check (option string)) "neighbour not corrupted" None
    (Machine.is_corrupted s.Helpers.machine ~enclave:neighbour.Enclave.id);
  Alcotest.(check bool) "neighbour kernel healthy" true
    (Covirt_kitten.Kitten.health neighbour_kitten = `Ok)

let test_run_guarded () =
  let mp = framework () in
  let _, p = mp in
  let enclave = launch ~cores:[ 1 ] mp in
  (* a crash in guarded code reclaims the enclave *)
  let result =
    Pisces.run_guarded p (fun () ->
        raise
          (Vmx.Vm_terminated
             { cpu_id = 1; enclave = enclave.Enclave.id; reason = "test" }))
  in
  (match result with
  | Error crash ->
      Alcotest.(check int) "enclave id" enclave.Enclave.id crash.Pisces.enclave_id;
      Alcotest.(check string) "reason" "test" crash.Pisces.reason
  | Ok () -> Alcotest.fail "crash not caught");
  Alcotest.(check bool) "state crashed" true
    (match enclave.Enclave.state with Enclave.Crashed _ -> true | _ -> false);
  (* normal results pass through *)
  Alcotest.(check (result int reject)) "ok passes" (Ok 5)
    (Pisces.run_guarded p (fun () -> 5))

let test_channel_ack_bookkeeping () =
  let machine, _ = framework () in
  let chan = Ctrl_channel.create () in
  let cpu = Machine.cpu machine 0 in
  Ctrl_channel.send_to_host machine ~enclave_cpu:cpu chan (Message.Console "x");
  Ctrl_channel.send_to_host machine ~enclave_cpu:cpu chan (Message.Ack { seq = 3 });
  (match Ctrl_channel.take_ack chan ~seq:3 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* the unrelated console message is preserved *)
  (match Ctrl_channel.drain_host_side chan with
  | [ Message.Console "x" ] -> ()
  | _ -> Alcotest.fail "console message lost");
  Alcotest.(check bool) "missing ack is an error" true
    (Result.is_error (Ctrl_channel.take_ack chan ~seq:9))

let () =
  Alcotest.run "pisces"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "core exclusivity" `Quick test_core_exclusivity;
          Alcotest.test_case "boot" `Quick test_boot_lifecycle;
          Alcotest.test_case "destroy reclaims" `Quick test_destroy_reclaims;
          Alcotest.test_case "run_guarded" `Quick test_run_guarded;
          Alcotest.test_case "teardown flushes stale TLB" `Quick
            test_teardown_flushes_stale_tlb;
        ] );
      ( "resources",
        [
          Alcotest.test_case "add/remove memory" `Quick test_add_remove_memory;
          Alcotest.test_case "map hook ordering" `Quick test_hook_ordering_on_map;
          Alcotest.test_case "unmap hook ordering" `Quick
            test_hook_ordering_on_unmap;
          Alcotest.test_case "shared mappings" `Quick test_shared_mapping_paths;
          Alcotest.test_case "vector grant/revoke" `Quick test_vector_grant_revoke;
        ] );
      ( "channel",
        [
          Alcotest.test_case "syscall service" `Quick test_syscall_service;
          Alcotest.test_case "ack bookkeeping" `Quick test_channel_ack_bookkeeping;
        ] );
    ]
