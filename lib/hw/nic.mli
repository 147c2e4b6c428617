(** A simulated NIC: the device half of MMIO delegation.

    A minimal but complete device model for driving the
    device-passthrough path end to end: a register window (doorbell,
    status and MSI-binding registers at fixed offsets), a TX path the
    driver rings through an MMIO store, and an RX path where "hardware"
    raises an MSI at whatever core/vector the driver programmed.

    The protection story: the window is delegated through
    {!Covirt_pisces.Pisces.assign_device}, driver register writes
    are plain guest stores policed by the EPT, and RX interrupts are
    external interrupts — which exit even under posted-interrupt
    delivery, exactly like the local APIC timer. *)

type t

val doorbell_offset : int

val create : Machine.t -> name:string -> t
(** Registers the MMIO window with the machine's physical memory map
    (64 KiB BAR). *)

val name : t -> string
val window : t -> Region.t

val bind_msi : t -> core:int -> vector:int -> unit
(** What the driver's write to the MSI registers means: subsequent RX
    events interrupt [core] at [vector]. *)

val ring_tx : Machine.t -> Cpu.t -> t -> unit
(** Driver side: store to the doorbell register (a guest MMIO write
    through the full translation path) and count a transmitted
    frame. *)

val inject_rx : Machine.t -> t -> (unit, string) result
(** Hardware side: a frame arrived; raise the bound MSI.  Fails if the
    driver never bound one. *)

val tx_count : t -> int
val rx_count : t -> int
