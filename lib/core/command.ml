open Covirt_hw

type command =
  | Flush_tlb of Region.t
  | Flush_tlb_all
  | Reload_vmcs
  | Whitelist_updated
  | Halt_core

type queue = {
  ring : command Queue.t;
  mutable enqueued : int;
}

let slots = 64

let create_queue () = { ring = Queue.create (); enqueued = 0 }

let enqueue q cmd =
  if Queue.length q.ring >= slots then Error "command queue full"
  else begin
    Queue.push cmd q.ring;
    q.enqueued <- q.enqueued + 1;
    Ok ()
  end

let dequeue q = Queue.take_opt q.ring
let pending q = Queue.length q.ring
let enqueued_total q = q.enqueued

let pp_command ppf = function
  | Flush_tlb r -> Format.fprintf ppf "flush-tlb %a" Region.pp r
  | Flush_tlb_all -> Format.pp_print_string ppf "flush-tlb-all"
  | Reload_vmcs -> Format.pp_print_string ppf "reload-vmcs"
  | Whitelist_updated -> Format.pp_print_string ppf "whitelist-updated"
  | Halt_core -> Format.pp_print_string ppf "halt-core"
