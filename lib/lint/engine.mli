(** The analysis driver: tree walk, parsing, check dispatch,
    suppression accounting and rendering. *)

type result = {
  root : string;
  files : int;  (** sources analyzed *)
  findings : Finding.t list;  (** unsuppressed, sorted *)
  suppressed : Finding.t list;
      (** findings matched by a [(* lint: allow <check-id> *)] comment *)
  parse_errors : (string * string) list;  (** rel path, message *)
  graph : Layer.graph;  (** cross-layer reference graph (DOT export) *)
}

(** Fixture entry point: analyze raw text under a virtual path.
    Returns (findings, suppressed, parse error if the text does not
    parse). *)
val analyze_string :
  path:string ->
  text:string ->
  Finding.t list * Finding.t list * string option

exception No_tree of string

(** Analyze [root]/lib and [root]/bin; [root]/bench, [root]/examples
    and [root]/test (minus test/lint_fixtures) are parsed only as
    references for [unused-export].  Raises [No_tree] when [root]/lib
    does not exist (a tool error: exit 2). *)
val run : root:string -> result

(** 0 clean, 1 findings, 2 tool error (parse failures). *)
val exit_code : result -> int

(** Human-readable table: parse errors, findings, one summary line. *)
val pp_table : Format.formatter -> result -> unit

(** The full result as a JSON document (findings, suppressed,
    parse_errors, summary). *)
val to_json : result -> string

(** The layer-dependency graph as GraphViz DOT. *)
val dot : result -> string
