module Inner = struct
  let nested_dead = 2
end

let dead = 1
let used_via_open x = x + dead
let used_via_local_open = "s"
let kept () = ignore (dead, Inner.nested_dead)
