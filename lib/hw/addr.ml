type t = int

let page_size_4k = 4096
let page_size_2m = 2 * 1024 * 1024
let page_size_1g = 1024 * 1024 * 1024

type page_size = Page_4k | Page_2m | Page_1g

let bytes_of_page_size = function
  | Page_4k -> page_size_4k
  | Page_2m -> page_size_2m
  | Page_1g -> page_size_1g

(* Integer codes for the unboxed-result convention on the translation
   hot path (Ept.translate_code): success is a non-negative page-size
   code, failures are negative sentinels, and no caller allocates an
   option, tuple or result to learn the outcome. *)
let page_size_code = function Page_4k -> 0 | Page_2m -> 1 | Page_1g -> 2

let page_size_of_code = function
  | 0 -> Page_4k
  | 1 -> Page_2m
  | 2 -> Page_1g
  | c -> invalid_arg (Printf.sprintf "Addr.page_size_of_code: %d" c)

let[@inline] check_pow2 size =
  assert (size > 0 && size land (size - 1) = 0)

let page_down a ~size =
  check_pow2 size;
  a land lnot (size - 1)

let page_up a ~size =
  check_pow2 size;
  (a + size - 1) land lnot (size - 1)

let is_aligned a ~size =
  check_pow2 size;
  a land (size - 1) = 0

(* Inlined (with [check_pow2]) so that a constant [size], as on the TLB
   probe, divides by a shift rather than an integer division. *)
let[@inline] pfn a ~size =
  check_pow2 size;
  a / size

let pp ppf a = Format.fprintf ppf "0x%x" a
