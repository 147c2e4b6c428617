(* A parsed source file: raw text, the syntactic AST from
   compiler-libs, and the lexical artifacts the AST does not carry —
   comments (for warm-region markers and suppressions) come from a
   small scanner that understands OCaml's string and character
   literals, so a "(* warm-begin" inside a string literal is never
   mistaken for a marker (the regex linter's false-positive surface
   this library replaces). *)

type kind = Ml | Mli

type ast =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature
  | Parse_error of string

type comment = {
  c_line : int;  (* 1-based line of the opening "(*" *)
  c_end_line : int;
  c_text : string;  (* body between the delimiters, untrimmed *)
}

type t = {
  path : string;  (* repo-relative, '/'-separated *)
  kind : kind;
  text : string;
  ast : ast;
  comments : comment list;  (* in source order *)
}

(* --- the lexical scanner --- *)

(* Walks [text] once, tracking OCaml's lexical state precisely enough
   to recover comment spans: double-quoted strings (with escapes),
   quoted strings ({id|...|id}), character literals (distinguished
   from type variables and prose apostrophes by shape), and nested
   comments — including strings *inside* comments, which the real
   lexer also tracks (so a "*)" in a commented-out string does not
   close the comment). *)

let scan_comments text =
  let n = String.length text in
  let comments = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let peek k = if !i + k < n then text.[!i + k] else '\000' in
  let advance () =
    if text.[!i] = '\n' then incr line;
    incr i
  in
  (* Skip a double-quoted string, cursor on the opening quote. *)
  let skip_string () =
    advance ();
    let fin = ref false in
    while (not !fin) && !i < n do
      match text.[!i] with
      | '\\' ->
          advance ();
          if !i < n then advance ()
      | '"' ->
          advance ();
          fin := true
      | _ -> advance ()
    done
  in
  (* Skip a quoted string {id|...|id}, cursor on the '{'.  Returns
     false (consuming nothing) if this '{' does not open one. *)
  let skip_quoted_string () =
    let j = ref (!i + 1) in
    while
      !j < n && (match text.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
    do
      incr j
    done;
    if !j < n && text.[!j] = '|' then begin
      let id = String.sub text (!i + 1) (!j - !i - 1) in
      let closer = "|" ^ id ^ "}" in
      let m = String.length closer in
      (* consume up to and including the closer *)
      let fin = ref false in
      while (not !fin) && !i < n do
        if !i + m <= n && String.sub text !i m = closer then begin
          for _ = 1 to m do
            advance ()
          done;
          fin := true
        end
        else advance ()
      done;
      true
    end
    else false
  in
  (* A '\'' opens a character literal iff it has literal shape:
     '\...' (escape) or 'X' (single char then quote).  Anything else —
     type variables, prose apostrophes in comments — is punctuation. *)
  let is_char_literal () =
    peek 1 = '\\' || (peek 1 <> '\000' && peek 1 <> '\'' && peek 2 = '\'')
  in
  let skip_char_literal () =
    advance ();
    (* opening ' *)
    if !i < n && text.[!i] = '\\' then begin
      advance ();
      while !i < n && text.[!i] <> '\'' do
        advance ()
      done;
      if !i < n then advance ()
    end
    else begin
      if !i < n then advance ();
      if !i < n && text.[!i] = '\'' then advance ()
    end
  in
  (* Skip a comment, cursor on the '('; records the span. *)
  let skip_comment () =
    let start_line = !line in
    let body_start = !i + 2 in
    advance ();
    advance ();
    let depth = ref 1 in
    while !depth > 0 && !i < n do
      if text.[!i] = '(' && peek 1 = '*' then begin
        incr depth;
        advance ();
        advance ()
      end
      else if text.[!i] = '*' && peek 1 = ')' then begin
        decr depth;
        advance ();
        advance ()
      end
      else if text.[!i] = '"' then skip_string ()
      else if text.[!i] = '\'' && is_char_literal () then skip_char_literal ()
      else advance ()
    done;
    let body_end = max body_start (!i - 2) in
    comments :=
      {
        c_line = start_line;
        c_end_line = !line;
        c_text = String.sub text body_start (body_end - body_start);
      }
      :: !comments
  in
  while !i < n do
    match text.[!i] with
    | '(' when peek 1 = '*' -> skip_comment ()
    | '"' -> skip_string ()
    | '{' -> if not (skip_quoted_string ()) then advance ()
    | '\'' when is_char_literal () -> skip_char_literal ()
    | _ -> advance ()
  done;
  List.rev !comments

(* --- parsing --- *)

let parse ~path ~kind text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  let describe e =
    match Location.error_of_exn e with
    | Some (`Ok err) ->
        Format.asprintf "%a" Location.print_report err
        |> String.map (function '\n' -> ' ' | c -> c)
        |> String.trim
    | _ -> Printexc.to_string e
  in
  match kind with
  | Ml -> (
      match Parse.implementation lexbuf with
      | ast -> Impl ast
      | exception e -> Parse_error (describe e))
  | Mli -> (
      match Parse.interface lexbuf with
      | ast -> Intf ast
      | exception e -> Parse_error (describe e))

let of_string ~path text =
  let kind =
    if Filename.check_suffix path ".mli" then Mli
    else Ml (* callers only feed .ml/.mli *)
  in
  { path; kind; text; ast = parse ~path ~kind text; comments = scan_comments text }

let load ~root ~rel =
  let full = Filename.concat root rel in
  let ic = open_in_bin full in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string ~path:rel text

(* --- warm-region spans --- *)

(* A span opens at a comment whose body starts with "warm-begin" and
   closes at the next "warm-end" comment (inclusive line range).  An
   unterminated span extends to the end of file, matching the regex
   linter's behaviour. *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let comment_tag c =
  let s = String.trim c.c_text in
  if starts_with ~prefix:"warm-begin" s then `Begin
  else if starts_with ~prefix:"warm-end" s then `End
  else `Other

let warm_spans t =
  let rec go acc open_at = function
    | [] -> (
        match open_at with
        | Some l -> List.rev ((l, max_int) :: acc)
        | None -> List.rev acc)
    | c :: rest -> (
        match (comment_tag c, open_at) with
        | `Begin, None -> go acc (Some c.c_line) rest
        | `End, Some l -> go ((l, c.c_end_line) :: acc) None rest
        | _ -> go acc open_at rest)
  in
  go [] None t.comments

(* --- suppressions --- *)

(* "(* lint: allow <check-id> [rationale...] *)" suppresses findings
   of <check-id> on the comment's own line and the line after it.
   The rationale is free text and ignored. *)

let suppressions t =
  List.filter_map
    (fun c ->
      let s = String.trim c.c_text in
      if starts_with ~prefix:"lint: allow " s then
        let rest =
          String.sub s 12 (String.length s - 12) |> String.trim
        in
        let id =
          match String.index_opt rest ' ' with
          | Some i -> String.sub rest 0 i
          | None -> rest
        in
        if id = "" then None else Some (id, c.c_line, c.c_end_line + 1)
      else None)
    t.comments

let suppresses t (f : Finding.t) =
  List.exists
    (fun (id, lo, hi) -> id = f.Finding.check && f.Finding.line >= lo && f.Finding.line <= hi)
    (suppressions t)
