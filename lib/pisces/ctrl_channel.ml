open Covirt_hw

type t = {
  to_enclave : Message.host_to_enclave Queue.t;
  to_host : Message.enclave_to_host Queue.t;
  acks : (int, (unit, string) result) Hashtbl.t;
      (* seq -> Ok () for Ack, Error why for Nack.  Acks are routed
         here at send time so [take_ack] is a constant-time lookup
         instead of a scan of everything the enclave has pending —
         under thousands of in-flight control operations the old
         scan-and-requeue hunt was quadratic in channel depth. *)
  mutable to_host_count : int;
}

let create () =
  {
    to_enclave = Queue.create ();
    to_host = Queue.create ();
    acks = Hashtbl.create 4;
    to_host_count = 0;
  }

let charge machine cpu =
  Cpu.charge cpu machine.Machine.model.Cost_model.ctrl_channel_msg

let send_to_enclave machine ~host_cpu t msg =
  charge machine host_cpu;
  Queue.push msg t.to_enclave

let send_to_host machine ~enclave_cpu t msg =
  charge machine enclave_cpu;
  t.to_host_count <- t.to_host_count + 1;
  (* Acks and nacks answer a specific sequence number; they go to the
     reply slot keyed by it.  Everything else (console, syscalls,
     heartbeats, ready) stays in FIFO order for the drain paths. *)
  match msg with
  | Message.Ack { seq } -> Hashtbl.replace t.acks seq (Ok ())
  | Message.Nack { seq; why } -> Hashtbl.replace t.acks seq (Error why)
  | _ -> Queue.push msg t.to_host

let drain q =
  let acc = ref [] in
  while not (Queue.is_empty q) do
    acc := Queue.pop q :: !acc
  done;
  List.rev !acc

let drain_enclave_side t = drain t.to_enclave
let drain_host_side t = drain t.to_host

let drain_host_side_n t ~max =
  if max < 0 then invalid_arg "Ctrl_channel.drain_host_side_n";
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt t.to_host with
      | None -> List.rev acc
      | Some m -> go (n - 1) (m :: acc)
  in
  go max []

let take_ack t ~seq =
  match Hashtbl.find_opt t.acks seq with
  | Some result ->
      Hashtbl.remove t.acks seq;
      result
  | None -> Error (Printf.sprintf "no ack for seq %d" seq)

let pending_acks t = Hashtbl.length t.acks
let enclave_messages_sent t = t.to_host_count
