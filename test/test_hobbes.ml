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
    ]
