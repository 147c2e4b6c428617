type t = {
  nic_name : string;
  window : Region.t;
  mutable msi : (int * int) option; (* (core, vector) *)
  mutable tx : int;
  mutable rx : int;
}

let doorbell_offset = 0x0
let bar_bytes = 64 * 1024

let create machine ~name =
  let window = Phys_mem.add_device machine.Machine.mem ~name ~len:bar_bytes in
  { nic_name = name; window; msi = None; tx = 0; rx = 0 }

let name t = t.nic_name
let window t = t.window

let bind_msi t ~core ~vector =
  if vector < 32 || vector > 255 then invalid_arg "Nic.bind_msi: vector";
  t.msi <- Some (core, vector)

let ring_tx machine cpu t =
  (* a real MMIO store: translated, EPT-policed, side effects applied *)
  Machine.store machine cpu (t.window.Region.base + doorbell_offset);
  t.tx <- t.tx + 1

let inject_rx machine t =
  match t.msi with
  | None -> Error (Printf.sprintf "nic %s: no MSI bound" t.nic_name)
  | Some (core, vector) ->
      t.rx <- t.rx + 1;
      Machine.deliver_external_irq machine ~dest:core ~vector;
      Ok ()

let tx_count t = t.tx
let rx_count t = t.rx
