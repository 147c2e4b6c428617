let kib = 1024
let mib = 1024 * 1024
let gib = 1024 * 1024 * 1024

let cycles_to_seconds ~ghz c = float_of_int c /. (ghz *. 1e9)
let cycles_to_us ~ghz c = float_of_int c /. (ghz *. 1e3)
let seconds_to_cycles ~ghz s = int_of_float (s *. ghz *. 1e9)
let bytes_per_sec_to_mb_s b = b /. 1e6

let pp_bytes ppf n =
  let f = float_of_int n in
  if n >= gib then Format.fprintf ppf "%.1fGiB" (f /. float_of_int gib)
  else if n >= mib then Format.fprintf ppf "%.1fMiB" (f /. float_of_int mib)
  else if n >= kib then Format.fprintf ppf "%.1fKiB" (f /. float_of_int kib)
  else Format.fprintf ppf "%dB" n
