(* Just enough JSON for the benchmark: reading BENCHMARK.json and
   per-run result files, and printing numbers with all their digits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if !pos + 4 > n then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            pos := !pos + 4;
            if code < 128 then Buffer.add_char b (Char.chr code)
            else Buffer.add_char b '?'
        | c -> Buffer.add_char b c);
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> Str (str ())
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | 'n' -> lit "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        if !pos = start then fail "unexpected character";
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing characters";
  v

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse s

let member k = function
  | Obj kvs -> ( try List.assoc k kvs with Not_found -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_string = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_float = function Num f -> f | _ -> raise (Parse_error "expected a number")

(* Shortest decimal that reads back as the same float; JSON has no
   NaN or infinity. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
