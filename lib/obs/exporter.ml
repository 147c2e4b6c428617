(* Bounded trace-event buffer + hand-rolled Chrome trace_event JSON
   serialisation (the repo carries no JSON library, and the format is a
   flat array of small objects). *)

let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

type event = {
  name : string;
  cat : string;
  ph : string;
  ts : int;
  dur : int;
  pid : int;
  tid : int;
  args : (string * string) list;
}

(* [capacity] is configuration — shared, set before a run; the buffer
   itself is per-domain (Domain-local storage) so fleet shards trace
   into their own rings. *)
let capacity = ref 65536
let cycles_per_us = 1700.

type ring = {
  mutable buf : event array;
  mutable len : int;
  mutable dropped : int;
}

let ring_key =
  Domain.DLS.new_key (fun () -> { buf = [||]; len = 0; dropped = 0 })

let ring () = Domain.DLS.get ring_key

let clear () =
  let r = ring () in
  r.buf <- [||];
  r.len <- 0;
  r.dropped <- 0

let set_capacity c =
  capacity := max 1 c;
  clear ()

let dummy =
  { name = ""; cat = ""; ph = ""; ts = 0; dur = 0; pid = 0; tid = 0; args = [] }

let emit e =
  let r = ring () in
  if Array.length r.buf = 0 then r.buf <- Array.make !capacity dummy;
  if r.len >= Array.length r.buf then r.dropped <- r.dropped + 1
  else begin
    r.buf.(r.len) <- e;
    r.len <- r.len + 1
  end

let events () =
  let r = ring () in
  Array.to_list (Array.sub r.buf 0 r.len)

let length () = (ring ()).len
let dropped () = (ring ()).dropped

(* ------------------------------------------------------------------ *)
(* Serialisation.                                                      *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let us_of_cycles c = float_of_int c /. cycles_per_us

let event_json b e =
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f"
       (json_escape e.name) (json_escape e.cat) (json_escape e.ph)
       (us_of_cycles e.ts));
  if e.ph = "X" then
    Buffer.add_string b (Printf.sprintf ",\"dur\":%.3f" (us_of_cycles e.dur));
  if e.ph = "i" then Buffer.add_string b ",\"s\":\"t\"";
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d,\"tid\":%d" e.pid e.tid);
  let args = ("cycles", string_of_int e.dur) :: e.args in
  Buffer.add_string b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    args;
  Buffer.add_string b "}}"

let to_chrome_json () =
  let r = ring () in
  let b = Buffer.create ((256 * r.len) + 128) in
  Buffer.add_string b "{\"traceEvents\":[";
  for i = 0 to r.len - 1 do
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_char b '\n';
    event_json b r.buf.(i)
  done;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"";
  if r.dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf ",\"otherData\":{\"dropped\":\"%d\"}" r.dropped);
  Buffer.add_string b "}\n";
  Buffer.contents b

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_chrome_json ~path = write_file ~path (to_chrome_json ())

let write_jsonl ~path =
  let r = ring () in
  let b = Buffer.create (256 * r.len) in
  for i = 0 to r.len - 1 do
    event_json b r.buf.(i);
    Buffer.add_char b '\n'
  done;
  write_file ~path (Buffer.contents b)
