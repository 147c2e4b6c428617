type state = Ready | Running | Exited of int

type t = {
  pid : int;
  name : string;
  entry : Kitten.context -> int;
  mutable state : state;
  mutable cpu_cycles : int;
}

let create ~pid ~name entry =
  { pid; name; entry; state = Ready; cpu_cycles = 0 }

let exit_code t = match t.state with Exited c -> Some c | Ready | Running -> None

let pp ppf t =
  let state =
    match t.state with
    | Ready -> "ready"
    | Running -> "running"
    | Exited c -> Printf.sprintf "exited(%d)" c
  in
  Format.fprintf ppf "pid %d (%s) %s, %d cycles" t.pid t.name state t.cpu_cycles
