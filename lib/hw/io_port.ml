let pic_master_cmd = 0x20
let pit_channel0 = 0x40
let serial_com1 = 0x3f8
let reset_port = 0xcf9

module Bitmap = struct
  type t = Bytes.t (* 65536 ports, one bit each *)

  let create () = Bytes.make 8192 '\000'

  let protect t port =
    if port < 0 || port > 0xffff then invalid_arg "Io_port.Bitmap.protect";
    let byte = port lsr 3 and bit = port land 7 in
    Bytes.set t byte (Char.chr (Char.code (Bytes.get t byte) lor (1 lsl bit)))

  let protect_range t ~lo ~hi =
    for p = lo to hi do
      protect t p
    done

  let is_protected t port =
    if port < 0 || port > 0xffff then invalid_arg "Io_port.Bitmap.is_protected";
    let byte = port lsr 3 and bit = port land 7 in
    Char.code (Bytes.get t byte) land (1 lsl bit) <> 0

  let default_sensitive () =
    let t = create () in
    protect_range t ~lo:pic_master_cmd ~hi:(pic_master_cmd + 1);
    protect_range t ~lo:0xa0 ~hi:0xa1 (* PIC slave *);
    protect_range t ~lo:pit_channel0 ~hi:(pit_channel0 + 3);
    protect t reset_port;
    t
end
