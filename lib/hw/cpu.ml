type mode = Host_mode | Guest_mode of Vmcs.t

type t = {
  id : int;
  zone : Numa.zone;
  apic : Apic.t;
  tlb : Tlb.t;
  mutable tsc : int;
  mutable mode : mode;
  mutable owner : Owner.t;
  mutable online : bool;
  mutable isr : (t -> int -> unit) option;
  mutable nmi_handler : (t -> unit) option;
  mutable guest_pt : Guest_pt.t option;
}

let create ~id ~zone ~model =
  {
    id;
    zone;
    apic = Apic.create ();
    tlb = Tlb.create ~model;
    tsc = 0;
    mode = Host_mode;
    owner = Owner.Host;
    online = true;
    isr = None;
    nmi_handler = None;
    guest_pt = None;
  }

let charge t cycles =
  if cycles < 0 then invalid_arg "Cpu.charge: negative";
  t.tsc <- t.tsc + cycles

let rdtsc t = t.tsc

let vmcs t = match t.mode with Host_mode -> None | Guest_mode v -> Some v
let in_guest t = Option.is_some (vmcs t)

let enclave t =
  match t.owner with
  | Owner.Enclave e -> Some e
  | Owner.Host | Owner.Device _ | Owner.Free -> None

let pp ppf t =
  Format.fprintf ppf "cpu%d[zone%d %s %s tsc=%d]" t.id t.zone
    (Owner.to_string t.owner)
    (if in_guest t then "guest" else "host")
    t.tsc
