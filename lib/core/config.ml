open Covirt_hw

type ipi_mode = Ipi_off | Ipi_vapic_full | Ipi_piv

type t = {
  enabled : bool;
  memory : bool;
  ipi : ipi_mode;
  msr : bool;
  io : bool;
  max_ept_page : Addr.page_size;
  sanitize : bool;
}

let native =
  {
    enabled = false;
    memory = false;
    ipi = Ipi_off;
    msr = false;
    io = false;
    max_ept_page = Addr.Page_1g;
    (* The shadow sanitizer is opt-in: the disabled path must stay a
       single branch per tap site. *)
    sanitize = false;
  }

let none = { native with enabled = true }
let mem = { none with memory = true }
let ipi = { none with ipi = Ipi_piv }
let mem_ipi = { mem with ipi = Ipi_piv }
let full = { mem_ipi with msr = true; io = true }

let presets =
  [ ("native", native); ("none", none); ("mem", mem); ("ipi", ipi);
    ("mem+ipi", mem_ipi) ]

let name t =
  if not t.enabled then "native"
  else
    let features =
      List.filter_map
        (fun (label, on) -> if on then Some label else None)
        [
          ("mem", t.memory);
          ( (match t.ipi with
            | Ipi_off -> ""
            | Ipi_vapic_full -> "ipi/full"
            | Ipi_piv -> "ipi"),
            t.ipi <> Ipi_off );
          ("msr", t.msr);
          ("io", t.io);
        ]
    in
    if features = [] then "none" else String.concat "+" features

let pp ppf t = Format.pp_print_string ppf (name t)
