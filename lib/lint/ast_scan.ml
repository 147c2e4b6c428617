(* Shared AST plumbing for the checks: longident harvesting (the raw
   material of the layer/confinement analyses) and a guard-tracking
   expression walker (the raw material of the tap-contract and
   warm-region analyses).  Everything here is purely syntactic —
   Parsetree from compiler-libs, no typing. *)

open Parsetree

let rec flatten (lid : Longident.t) =
  match lid with
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply (a, b) -> flatten a @ flatten b

(* --- longident harvesting --- *)

type lid_ref = { r_path : string list; r_line : int; r_col : int }

let ref_of_loc lid (loc : Location.t) =
  {
    r_path = flatten lid;
    r_line = loc.loc_start.pos_lnum;
    r_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
  }

(* Every node class that syntactically carries a [Longident.t]:
   value/constructor/field/type references, opens, module aliases.
   The iterator visits both structures and signatures, so .mli
   references participate in the layer graph too. *)
let harvest_iterator push =
  let open Ast_iterator in
  let lid (l : Longident.t Asttypes.loc) = push (ref_of_loc l.txt l.loc) in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l) | Pexp_new l ->
        lid l
    | Pexp_setfield (_, l, _) -> lid l
    | Pexp_record (fields, _) -> List.iter (fun (l, _) -> lid l) fields
    | _ -> ());
    default_iterator.expr it e
  in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_construct (l, _) | Ppat_type l | Ppat_open (l, _) -> lid l
    | Ppat_record (fields, _) -> List.iter (fun (l, _) -> lid l) fields
    | _ -> ());
    default_iterator.pat it p
  in
  let typ it t =
    (match t.ptyp_desc with
    | Ptyp_constr (l, _) | Ptyp_class (l, _) -> lid l
    | Ptyp_package (l, cstrs) ->
        lid l;
        List.iter (fun (l, _) -> lid l) cstrs
    | _ -> ());
    default_iterator.typ it t
  in
  let module_expr it m =
    (match m.pmod_desc with Pmod_ident l -> lid l | _ -> ());
    default_iterator.module_expr it m
  in
  let module_type it m =
    (match m.pmty_desc with
    | Pmty_ident l | Pmty_alias l -> lid l
    | _ -> ());
    default_iterator.module_type it m
  in
  let open_description it (o : open_description) =
    lid o.popen_expr;
    default_iterator.open_description it o
  in
  {
    default_iterator with
    expr;
    pat;
    typ;
    module_expr;
    module_type;
    open_description;
  }

let refs (src : Source.t) =
  let acc = ref [] in
  let it = harvest_iterator (fun r -> acc := r :: !acc) in
  (match src.Source.ast with
  | Source.Impl s -> it.structure it s
  | Source.Intf s -> it.signature it s
  | Source.Parse_error _ -> ());
  List.rev !acc

(* --- the guard-tracking walker --- *)

type ctx = {
  guards : expression list;
      (* conditions of the enclosing [if]-then branches, innermost first *)
  cold : bool;
      (* inside an [exception _ ->] match case or a [try] handler: the
         repo's designated cold-fill idiom *)
}

(* Visit every expression with its guard context.  [on_expr] runs
   before recursion; recursion order is depth-first, so the mutable
   stack discipline below reconstructs lexical nesting exactly. *)
let iter_guarded ~(on_expr : ctx -> expression -> unit) (str : structure) =
  let open Ast_iterator in
  let guards = ref [] in
  let cold = ref false in
  let ctx () = { guards = !guards; cold = !cold } in
  let rec it =
    {
      default_iterator with
      expr =
        (fun iter e ->
          on_expr (ctx ()) e;
          match e.pexp_desc with
          | Pexp_ifthenelse (cond, then_, else_) ->
              iter.attributes iter e.pexp_attributes;
              it.expr iter cond;
              guards := cond :: !guards;
              it.expr iter then_;
              guards := List.tl !guards;
              Option.iter (it.expr iter) else_
          | Pexp_try (body, handlers) ->
              iter.attributes iter e.pexp_attributes;
              it.expr iter body;
              let saved = !cold in
              cold := true;
              it.cases iter handlers;
              cold := saved
          | _ -> default_iterator.expr iter e);
      case =
        (fun iter c ->
          it.pat iter c.pc_lhs;
          Option.iter (it.expr iter) c.pc_guard;
          let is_exception =
            match c.pc_lhs.ppat_desc with
            | Ppat_exception _ -> true
            | _ -> false
          in
          let saved = !cold in
          if is_exception then cold := true;
          it.expr iter c.pc_rhs;
          cold := saved);
    }
  in
  it.structure it str

(* --- expression classifiers --- *)

let line_of (e : expression) = e.pexp_loc.loc_start.pos_lnum

let col_of (e : expression) =
  e.pexp_loc.loc_start.pos_cnum - e.pexp_loc.loc_start.pos_bol

let last xs = List.nth_opt xs (List.length xs - 1)

let ends_with_on path =
  match last path with
  | Some s -> s = "on" || Filename.check_suffix s "_on"
  | None -> false

(* [!flag] — a prefix-[!] application of one identifier. *)
let deref_target (e : expression) =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "!"; _ }; _ },
        [ (Asttypes.Nolabel, { pexp_desc = Pexp_ident l; _ }) ] ) ->
      Some (flatten l.txt)
  | _ -> None

let is_on_flag_deref e =
  match deref_target e with Some p -> ends_with_on p | None -> false

(* Does the expression tree contain a [!<...>on] deref anywhere? *)
let mentions_on_flag (e : expression) =
  let found = ref false in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun iter x ->
          if is_on_flag_deref x then found := true;
          default_iterator.expr iter x);
    }
  in
  it.expr it e;
  !found

let pure_operators =
  [ "&&"; "||"; "not"; "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "+"; "-";
    "land"; "lor"; "lsr"; "lsl" ]

(* A pure flag test: only [!flag] derefs, boolean/comparison/integer
   operators, identifiers, non-string constants, field reads and
   argument-free constructors.  Closures, tuples, strings and general
   applications (the partial-application surface) all fail. *)
let rec pure_guard (e : expression) =
  match e.pexp_desc with
  | Pexp_ident _ -> true
  | Pexp_constant (Pconst_string _) -> false
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true
  | Pexp_field (b, _) -> pure_guard b
  | Pexp_constraint (b, _) -> pure_guard b
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "!"; _ }; _ }, [ (_, arg) ])
    -> (
      match arg.pexp_desc with Pexp_ident _ -> true | _ -> pure_guard arg)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident op; _ }; _ }, args)
    when List.mem op pure_operators ->
      List.for_all (fun (_, a) -> pure_guard a) args
  | _ -> false

(* --- emission-site recognition --- *)

type emission =
  | Obs of string  (* Metrics.add / Span.instant / Exporter.emit ... *)
  | Sanitize of string
  | Tap of string  (* application of a dereffed [*tap*] function ref *)

let obs_metrics = [ "add"; "set"; "observe" ]
let obs_span = [ "instant"; "complete" ]

let sanitize_emissions =
  [ "note_enclave"; "note_ept"; "allow"; "disallow"; "drop_enclave";
    "phys_event"; "access"; "ept_write"; "tlb_install" ]

let tail2 path =
  match List.rev path with b :: a :: _ -> Some (a, b) | _ -> None

let emission_of (e : expression) =
  match e.pexp_desc with
  | Pexp_apply (fn, _) -> (
      match fn.pexp_desc with
      | Pexp_ident l -> (
          match tail2 (flatten l.txt) with
          | Some ("Metrics", f) when List.mem f obs_metrics ->
              Some (Obs ("Metrics." ^ f))
          | Some ("Span", f) when List.mem f obs_span ->
              Some (Obs ("Span." ^ f))
          | Some ("Exporter", "emit") -> Some (Obs "Exporter.emit")
          | Some ("Vmexit", "record") -> Some (Obs "Vmexit.record")
          | Some ("Sanitize", f) when List.mem f sanitize_emissions ->
              Some (Sanitize ("Sanitize." ^ f))
          | _ -> None)
      | _ -> (
          match deref_target fn with
          | Some path -> (
              match last path with
              | Some name
                when String.length name >= 3
                     && (let has_sub = ref false in
                         for i = 0 to String.length name - 3 do
                           if String.sub name i 3 = "tap" then has_sub := true
                         done;
                         !has_sub) ->
                  Some (Tap name)
              | _ -> None)
          | None -> None))
  | _ -> None

let emission_name = function Obs s | Sanitize s -> s | Tap s -> "!" ^ s
