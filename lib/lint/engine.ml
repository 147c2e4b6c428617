(* The analysis driver: walk the tree, parse every source, run the
   checks, account suppressions, and render.  Exit-code contract
   (consumed by bin/covirt_lint and CI): 0 clean, 1 findings, 2 tool
   error (unparseable file or missing tree). *)

type result = {
  root : string;
  files : int;  (* sources analyzed *)
  findings : Finding.t list;  (* unsuppressed, sorted *)
  suppressed : Finding.t list;  (* matched by a (* lint: allow *) comment *)
  parse_errors : (string * string) list;  (* rel path, message *)
  graph : Layer.graph;
}

(* --- filesystem walk (stdlib only, sorted for determinism) --- *)

let rec walk dir rel_prefix acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc e ->
          let path = Filename.concat dir e in
          let rel = if rel_prefix = "" then e else rel_prefix ^ "/" ^ e in
          if Sys.is_directory path then
            if e = "_build" || e = ".git" then acc else walk path rel acc
          else if
            Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
          then rel :: acc
          else acc)
        acc entries

let files_under root dirs =
  List.sort String.compare
    (List.concat_map (fun d -> walk (Filename.concat root d) d []) dirs)

let tree_files root = files_under root [ "lib"; "bin" ]

(* Read for [unused-export] references only, never linted.  The lint
   fixtures are excluded: they impersonate lib/ files under virtual
   paths and would otherwise count as uses. *)
let reference_files root =
  List.filter
    (fun rel -> not (String.starts_with ~prefix:"test/lint_fixtures/" rel))
    (files_under root [ "bench"; "examples"; "test" ])

(* --- per-source analysis (fixture entry point) --- *)

(* Split raw findings into (kept, suppressed) using the source's
   suppression comments. *)
let account (src : Source.t) findings =
  List.partition (fun f -> not (Source.suppresses src f)) findings

let analyze_source ?graph (src : Source.t) =
  account src (Checks.file_checks ?graph src)

let analyze_string ~path ~text =
  let src = Source.of_string ~path text in
  let findings, suppressed = analyze_source src in
  let parse_error =
    match src.Source.ast with Source.Parse_error m -> Some m | _ -> None
  in
  (findings, suppressed, parse_error)

(* --- the tree run --- *)

exception No_tree of string

let run ~root =
  if not (Sys.file_exists (Filename.concat root "lib")) then
    raise (No_tree (Printf.sprintf "no lib/ under %s" root));
  let rels = tree_files root in
  let linted = List.map (fun rel -> Source.load ~root ~rel) rels in
  let referencing =
    List.map (fun rel -> Source.load ~root ~rel) (reference_files root)
  in
  let graph = Layer.create () in
  let per_file = List.map (analyze_source ~graph) linted in
  let by_path = Hashtbl.create 512 in
  List.iter (fun (s : Source.t) -> Hashtbl.replace by_path s.path s) linted;
  let unused, unused_supp =
    List.partition
      (fun (f : Finding.t) ->
        not (Source.suppresses (Hashtbl.find by_path f.file) f))
      (Checks.check_unused_export (linted @ referencing))
  in
  {
    root;
    files = List.length linted;
    findings =
      List.sort Finding.compare
        (Checks.check_mli_presence rels @ unused
        @ List.concat_map fst per_file);
    suppressed =
      List.sort Finding.compare (unused_supp @ List.concat_map snd per_file);
    parse_errors =
      List.filter_map
        (fun (s : Source.t) ->
          match s.ast with
          | Source.Parse_error msg -> Some (s.path, msg)
          | _ -> None)
        (linted @ referencing);
    graph;
  }

let exit_code r =
  if r.parse_errors <> [] then 2 else if r.findings <> [] then 1 else 0

(* --- renderers --- *)

let pp_table ppf r =
  List.iter
    (fun (rel, msg) ->
      Format.fprintf ppf "lint: %s: parse error: %s@." rel msg)
    r.parse_errors;
  List.iter (fun f -> Format.fprintf ppf "lint: %a@." Finding.pp f) r.findings;
  let n = List.length r.findings
  and s = List.length r.suppressed
  and p = List.length r.parse_errors in
  if p > 0 then
    Format.fprintf ppf "lint: tool error: %d unparseable file(s)@." p
  else if n > 0 then
    Format.fprintf ppf "lint: %d finding(s) in %d file(s), %d suppressed@." n
      r.files s
  else
    Format.fprintf ppf "lint: clean (%d files, %d suppressed finding(s))@."
      r.files s

let to_json r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"root\": \"%s\",\n" (Finding.json_escape r.root));
  Buffer.add_string buf (Printf.sprintf "  \"files\": %d,\n" r.files);
  let arr name items render =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": [" name);
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (render x))
      items;
    Buffer.add_string buf "]"
  in
  arr "findings" r.findings Finding.to_json;
  Buffer.add_string buf ",\n";
  arr "suppressed" r.suppressed Finding.to_json;
  Buffer.add_string buf ",\n";
  arr "parse_errors" r.parse_errors (fun (rel, msg) ->
      Printf.sprintf "{\"file\":\"%s\",\"message\":\"%s\"}"
        (Finding.json_escape rel) (Finding.json_escape msg));
  Buffer.add_string buf ",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"findings\": %d, \"suppressed\": %d, \
        \"parse_errors\": %d, \"exit_code\": %d}\n"
       (List.length r.findings)
       (List.length r.suppressed)
       (List.length r.parse_errors)
       (exit_code r));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let dot r = Layer.dot r.graph
