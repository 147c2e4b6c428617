(** Parsed source files: raw text, the syntactic AST (compiler-libs),
    and the lexical artifacts the AST does not carry — comment spans,
    warm-region markers and [(* lint: allow <check-id> *)]
    suppressions — recovered by a scanner that understands OCaml's
    string/char-literal syntax, so tokens inside literals or comments
    are never mistaken for code. *)

type kind = Ml | Mli

type ast =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature
  | Parse_error of string  (** one-line description; a tool error *)

type comment = {
  c_line : int;  (** 1-based line of the opening delimiter *)
  c_end_line : int;
  c_text : string;  (** body between the delimiters *)
}

type t = {
  path : string;  (** repo-relative, '/'-separated *)
  kind : kind;
  text : string;
  ast : ast;
  comments : comment list;  (** in source order *)
}

(** Scan [text] for comments, tracking strings, quoted strings and
    character literals so delimiters inside them are inert. *)
val scan_comments : string -> comment list

(** Parse from text under a virtual repo-relative [path] (".mli" ⇒
    interface syntax).  Never raises: parse failures land in
    [Parse_error]. *)
val of_string : path:string -> string -> t

(** Read and parse [root ^ "/" ^ rel]; [path] is set to [rel]. *)
val load : root:string -> rel:string -> t

(** Inclusive line ranges between [(* warm-begin ... *)] and
    [(* warm-end *)] markers; an unclosed span runs to end-of-file. *)
val warm_spans : t -> (int * int) list

(** Does some suppression in [t] cover this finding? *)
val suppresses : t -> Finding.t -> bool
