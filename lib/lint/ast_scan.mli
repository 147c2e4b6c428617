(** Syntactic AST plumbing shared by the checks: longident harvesting
    and a guard-tracking expression walker.  Purely syntactic —
    Parsetree only, no typing. *)

val flatten : Longident.t -> string list

type lid_ref = {
  r_path : string list;  (** flattened longident components *)
  r_line : int;  (** 1-based *)
  r_col : int;  (** 0-based *)
}

(** Every longident carried by the file's AST (idents, constructors,
    record fields, type constructors, opens, module aliases), in
    source order; empty on parse error.  Visits .mli signatures too. *)
val refs : Source.t -> lid_ref list

type ctx = {
  guards : Parsetree.expression list;
      (** conditions of enclosing [if]-then branches, innermost first *)
  cold : bool;
      (** inside an [exception _ ->] case or [try] handler — the
          repo's designated cold-fill idiom *)
}

(** Visit every expression of a structure with its guard context;
    [on_expr] runs before descending into the node. *)
val iter_guarded :
  on_expr:(ctx -> Parsetree.expression -> unit) -> Parsetree.structure -> unit

val line_of : Parsetree.expression -> int
val col_of : Parsetree.expression -> int

(** Does the expression tree contain an enable-flag deref anywhere? *)
val mentions_on_flag : Parsetree.expression -> bool

(** A pure flag test: only derefs, identifiers, non-string constants,
    field reads, argument-free constructors and boolean/comparison/
    integer operators.  Closures, tuples, strings and general
    applications (the partial-application surface) fail. *)
val pure_guard : Parsetree.expression -> bool

type emission =
  | Obs of string  (** [Metrics.add], [Span.instant], [Exporter.emit] … *)
  | Sanitize of string  (** [Sanitize.access], [Sanitize.tlb_install] … *)
  | Tap of string  (** application of a dereffed [*tap*] function ref *)

(** Recognize an application expression as an emission site. *)
val emission_of : Parsetree.expression -> emission option

val emission_name : emission -> string
