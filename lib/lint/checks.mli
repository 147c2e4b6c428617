(** The check catalogue: each check maps a parsed source (or, for the
    tree checks, the file list) to typed findings.  Path scoping lives
    inside each check so fixtures can exercise them under virtual
    paths. *)

(** [(check-id, one-line description)] for every check, in catalogue
    order — the CLI's [--list] and the docs' check table render this. *)
val catalogue : (string * string) list

(** Tree check: every lib/ .ml has a sibling .mli in the file list. *)
val check_mli_presence : string list -> Finding.t list

(** Tree check: every [val] of a lib/ .mli (nested module signatures
    included) is named by the last component of some longident in a
    compilation unit other than its own .ml/.mli.  [sources] is both
    the interfaces to check and the reference set. *)
val check_unused_export : Source.t list -> Finding.t list

(** All per-file checks on one source, in catalogue order. *)
val file_checks : ?graph:Layer.graph -> Source.t -> Finding.t list
