type vapic_mode =
  | Vapic_off
  | Vapic_full
  | Vapic_piv of { notification_vector : int }

type controls = {
  ept : Ept.t option;
  msr_bitmap : Msr.Bitmap.t option;
  io_bitmap : Io_port.Bitmap.t option;
  vapic : vapic_mode;
}

type guest_state = {
  entry_rip : Addr.t;
  boot_params_gpa : Addr.t;
  long_mode : bool;
}

type exit_reason =
  | Ept_violation
  | Icr_write
  | Msr_access
  | Io_access
  | Cpuid
  | Xsetbv
  | Hlt
  | External_interrupt
  | Nmi_exit
  | Abort

type exit_info = {
  mutable reason : exit_reason;
  mutable qual : int;
  mutable addr : int;
  mutable value : int;
  mutable msr_value : int64;
  mutable what : string;
}

let ept_present = 4

type action = Resume | Skip | Kill of { reason : string }

type t = {
  vcpu : int;
  enclave : int;
  guest : guest_state;
  mutable controls : controls;
  mutable exit_handler : (exit_info -> action) option;
  mutable launched : bool;
  exit : exit_info;
  exits : int array;
}

(* A constant constructor is represented by its declaration index, so
   this is the identity on the machine word, not a lookup. *)
let code (r : exit_reason) : int = Obj.magic r

let exit_reason_names =
  [|
    "ept-violation"; "icr-write"; "msr-access"; "io-access"; "cpuid";
    "xsetbv"; "hlt"; "external-interrupt"; "nmi"; "abort";
  |]

let exit_reason_arms = Array.length exit_reason_names
let () = assert (code Abort = exit_reason_arms - 1)

let create ~vcpu ~enclave ~guest ~controls =
  {
    vcpu;
    enclave;
    guest;
    controls;
    exit_handler = None;
    launched = false;
    exit =
      { reason = Hlt; qual = 0; addr = 0; value = 0; msr_value = 0L; what = "" };
    exits = Array.make exit_reason_arms 0;
  }

let no_controls =
  { ept = None; msr_bitmap = None; io_bitmap = None; vapic = Vapic_off }

let set_exit t reason ~qual ~addr ~value =
  let x = t.exit in
  x.reason <- reason;
  x.qual <- qual;
  x.addr <- addr;
  x.value <- value
