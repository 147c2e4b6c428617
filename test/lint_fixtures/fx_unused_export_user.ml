open Gear

let a = used_via_open 2
let b = Gear.(used_via_local_open)
