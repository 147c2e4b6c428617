type severity = Debug | Info | Warn | Error

type event = { tsc : int; cpu : int; severity : severity; message : string }

type t = {
  capacity : int;
  ring : event option array;
  mutable next : int; (* total number of events ever recorded *)
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  { capacity; ring = Array.make capacity None; next = 0 }

let record t ~tsc ~cpu ~severity message =
  t.ring.(t.next mod t.capacity) <- Some { tsc; cpu; severity; message };
  t.next <- t.next + 1

let recordf t ~tsc ~cpu ~severity fmt =
  Format.kasprintf (record t ~tsc ~cpu ~severity) fmt

let events t =
  let n = min t.next t.capacity in
  let start = t.next - n in
  List.init n (fun i ->
      match t.ring.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let dropped t = max 0 (t.next - t.capacity)

let find t ~f = List.find_opt f (events t)

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0

let severity_tag = function
  | Debug -> "DBG"
  | Info -> "INF"
  | Warn -> "WRN"
  | Error -> "ERR"

let pp_event ppf e =
  Format.fprintf ppf "[%12d] cpu%-2d %s %s" e.tsc e.cpu (severity_tag e.severity)
    e.message

let pp ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_event e) (events t)
