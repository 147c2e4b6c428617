(* The check catalogue.  Each check is a pure function from a parsed
   source (plus, for the tree checks, the file list) to findings; the
   engine owns suppression accounting and rendering.  Path scoping
   lives here so a check can be exercised against fixture text under a
   virtual path. *)

open Parsetree

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let in_dir dir path = starts_with ~prefix:(dir ^ "/") path
let in_lib path = in_dir "lib" path

let hot_layers = [ "lib/hw"; "lib/core" ]
let tap_layers = [ "lib/hw"; "lib/core"; "lib/resilience" ]
let in_any dirs path = List.exists (fun d -> in_dir d path) dirs

let finding ~check ~src ~line ~col msg =
  Finding.v ~check ~file:src.Source.path ~line ~col msg

(* The registry rows: id and a one-line description (the CLI's
   [--list] output and the docs' check catalogue are generated from
   the same data). *)
let catalogue =
  [
    ( "mli-presence",
      "every module under lib/ has an interface (.mli next to the .ml)" );
    ( "no-print",
      "the hot layers (lib/hw, lib/core) never print to stdout/stderr \
       directly" );
    ( "guarded-obs",
      "observability emissions in the hot layers are dominated by an \
       enable-flag guard" );
    ( "fleet-monopoly",
      "Domain.spawn only under lib/fleet; lib/fleet never references \
       Covirt_hw" );
    ( "replay-confinement",
      "Covirt_replay referenced by no other lib layer; the trace magic \
       literal lives only in lib/replay/trace.ml" );
    ( "warm-alloc",
      "warm regions are allocation-free by construction (closures, tuples, \
       list/array literals, boxing constructors, Printf/Format, combinator \
       calls)" );
    ( "tap-zero-cost",
      "every Obs/Sanitize/Recorder/Coverage tap site sits under a pure \
       !flag guard that itself allocates nothing" );
    ( "layer-deps",
      "inter-layer module references match the declared layer rule table" );
    ( "determinism",
      "no wall-clock or self-seeded randomness in lib/; no Hashtbl \
       iteration feeding merged fleet results" );
    ( "unused-export",
      "every val in a lib/ interface is referenced from some other \
       compilation unit (lib, bin, bench, examples or test)" );
  ]

(* --- check: no-print ---------------------------------------------- *)

let print_idents =
  [ [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Format"; "printf" ];
    [ "Format"; "eprintf" ]; [ "print_endline" ]; [ "print_string" ];
    [ "print_newline" ]; [ "print_int" ]; [ "print_float" ];
    [ "prerr_endline" ]; [ "prerr_string" ]; [ "prerr_newline" ] ]

let check_no_print (src : Source.t) =
  if not (in_any hot_layers src.path && src.kind = Source.Ml) then []
  else
    List.filter_map
      (fun (r : Ast_scan.lid_ref) ->
        if List.mem r.r_path print_idents then
          Some
            (finding ~check:"no-print" ~src ~line:r.r_line ~col:r.r_col
               (Printf.sprintf
                  "direct output via %s (use a pp function or Table)"
                  (String.concat "." r.r_path)))
        else None)
      (Ast_scan.refs src)

(* --- checks: guarded-obs and tap-zero-cost ------------------------ *)

(* Both walk the same emission sites with the guard-tracking iterator.
   [guarded-obs] (the ported check 3) demands that an observability
   emission be dominated by *some* enable-flag guard; [tap-zero-cost]
   (the hardened contract) additionally covers Sanitize and the
   coverage/recorder tap refs, and demands the dominating guard be a
   pure flag test — no closures, strings, tuples or general calls (the
   allocation surface) in the condition. *)

let emissions_of_structure str =
  let acc = ref [] in
  Ast_scan.iter_guarded str ~on_expr:(fun ctx e ->
      match Ast_scan.emission_of e with
      | Some em -> acc := (ctx, em, e) :: !acc
      | None -> ());
  List.rev !acc

let structure_of src =
  match src.Source.ast with Source.Impl s -> Some s | _ -> None

let check_guarded_obs (src : Source.t) =
  if not (in_any hot_layers src.path && src.kind = Source.Ml) then []
  else
    match structure_of src with
    | None -> []
    | Some str ->
        List.filter_map
          (fun (ctx, em, e) ->
            match em with
            | Ast_scan.Obs name ->
                if List.exists Ast_scan.mentions_on_flag ctx.Ast_scan.guards
                then None
                else
                  Some
                    (finding ~check:"guarded-obs" ~src
                       ~line:(Ast_scan.line_of e) ~col:(Ast_scan.col_of e)
                       (Printf.sprintf
                          "%s emission not dominated by an enable-flag \
                           guard (!Metrics.on / !Exporter.on)"
                          name))
            | _ -> None)
          (emissions_of_structure str)

let check_tap_zero_cost (src : Source.t) =
  if not (in_any tap_layers src.path && src.kind = Source.Ml) then []
  else
    match structure_of src with
    | None -> []
    | Some str ->
        List.filter_map
          (fun (ctx, em, e) ->
            let name = Ast_scan.emission_name em in
            let line = Ast_scan.line_of e and col = Ast_scan.col_of e in
            match
              List.find_opt Ast_scan.mentions_on_flag ctx.Ast_scan.guards
            with
            | None ->
                Some
                  (finding ~check:"tap-zero-cost" ~src ~line ~col
                     (Printf.sprintf
                        "%s tap site has no dominating !flag guard — the \
                         disabled path must be a single boolean deref"
                        name))
            | Some g ->
                if Ast_scan.pure_guard g then None
                else
                  Some
                    (finding ~check:"tap-zero-cost" ~src ~line ~col
                       (Printf.sprintf
                          "%s tap guard is not a pure flag test (closures, \
                           strings, tuples and calls allocate on the \
                           disabled path)"
                          name)))
          (emissions_of_structure str)

(* --- check: fleet-monopoly ---------------------------------------- *)

let rec has_pair a b = function
  | x :: (y :: _ as rest) -> (x = a && y = b) || has_pair a b rest
  | _ -> false

let check_fleet_monopoly (src : Source.t) =
  if not (in_lib src.path) then []
  else
    let in_fleet = in_dir "lib/fleet" src.path in
    List.filter_map
      (fun (r : Ast_scan.lid_ref) ->
        if (not in_fleet) && has_pair "Domain" "spawn" r.r_path then
          Some
            (finding ~check:"fleet-monopoly" ~src ~line:r.r_line ~col:r.r_col
               "Domain.spawn outside lib/fleet (go through \
                Covirt_fleet.Fleet)")
        else if
          in_fleet && (match r.r_path with "Covirt_hw" :: _ -> true | _ -> false)
        then
          Some
            (finding ~check:"fleet-monopoly" ~src ~line:r.r_line ~col:r.r_col
               "lib/fleet must not reference Covirt_hw (hardware state \
                stays shard-local)")
        else None)
      (Ast_scan.refs src)

(* --- check: replay-confinement ------------------------------------ *)

(* The magic literal is assembled at runtime so this file never trips
   its own check. *)
let trace_magic = "CV" ^ "RT"

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let string_constants str =
  let acc = ref [] in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun iter e ->
          (match e.pexp_desc with
          | Pexp_constant (Pconst_string (s, loc, _)) ->
              acc := (s, loc.Location.loc_start) :: !acc
          | _ -> ());
          default_iterator.expr iter e);
    }
  in
  it.structure it str;
  List.rev !acc

let check_replay_confinement (src : Source.t) =
  let refs_findings =
    if in_lib src.path && not (in_dir "lib/replay" src.path) then
      List.filter_map
        (fun (r : Ast_scan.lid_ref) ->
          match r.r_path with
          | "Covirt_replay" :: _ ->
              Some
                (finding ~check:"replay-confinement" ~src ~line:r.r_line
                   ~col:r.r_col
                   "Covirt_replay referenced outside lib/replay (traces \
                    enter other layers only through bin/ and test/)")
          | _ -> None)
        (Ast_scan.refs src)
    else []
  in
  let magic_findings =
    if
      (in_lib src.path || in_dir "bin" src.path)
      && src.path <> "lib/replay/trace.ml"
    then
      match structure_of src with
      | None -> []
      | Some str ->
          List.filter_map
            (fun (s, (pos : Lexing.position)) ->
              if contains_sub s trace_magic then
                Some
                  (finding ~check:"replay-confinement" ~src
                     ~line:pos.pos_lnum
                     ~col:(pos.pos_cnum - pos.pos_bol)
                     "trace magic literal outside lib/replay/trace.ml (one \
                      codec only — go through Covirt_replay.Trace)")
              else None)
            (string_constants str)
    else []
  in
  refs_findings @ magic_findings

(* --- check: warm-alloc -------------------------------------------- *)

(* The files whose warm paths carry the zero-GC contract (DESIGN.md
   §13): each must still carry at least one warm-region marker. *)
let warm_files =
  [ "lib/hw/machine.ml"; "lib/hw/tlb.ml"; "lib/hw/ept.ml";
    "lib/hw/charge_memo.ml"; "lib/obs/metrics.ml" ]

let banned_combinator (path : string list) =
  match path with
  | [ "Printf"; _ ] | [ "Format"; _ ] -> Some "formatted output"
  | [ "List"; _ ] -> Some "List combinator"
  | [ "Array"; f ]
    when List.mem f
           [ "map"; "mapi"; "iter"; "iteri"; "fold_left"; "fold_right";
             "to_list"; "of_list"; "init"; "make"; "create_float"; "copy";
             "append"; "concat"; "sub" ] ->
      Some "Array combinator"
  | [ "Option"; f ] when List.mem f [ "map"; "iter"; "bind"; "join"; "to_list" ]
    ->
      Some "Option combinator"
  | [ "String"; f ] when List.mem f [ "concat"; "cat"; "init"; "map"; "sub" ]
    ->
      Some "String builder"
  | [ "Bytes"; f ] when List.mem f [ "create"; "make"; "init"; "sub"; "copy" ]
    ->
      Some "Bytes builder"
  | [ "^" ] | [ "@" ] | [ "^^" ] -> Some "concatenation operator"
  | [ "ref" ] -> Some "ref cell"
  | _ -> (
      match List.rev path with
      | "find_opt" :: _ -> Some "option-returning probe"
      | _ -> None)

(* Collect the [Pexp_fun]/[Pexp_function] nodes that are the immediate
   right-hand side of a value binding — named function definitions,
   evaluated once, not per-call closures. *)
let definition_funs str =
  let locs = Hashtbl.create 64 in
  let rec skip_fun_chain (e : expression) =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) ->
        Hashtbl.replace locs e.pexp_loc ();
        skip_fun_chain body
    | Pexp_newtype (_, body) ->
        Hashtbl.replace locs e.pexp_loc ();
        skip_fun_chain body
    | Pexp_function _ -> Hashtbl.replace locs e.pexp_loc ()
    | _ -> ()
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      value_binding =
        (fun iter vb ->
          skip_fun_chain vb.pvb_expr;
          default_iterator.value_binding iter vb);
    }
  in
  it.structure it str;
  locs

let check_warm_alloc (src : Source.t) =
  if not (in_lib src.path && src.kind = Source.Ml) then []
  else
    let spans = Source.warm_spans src in
    let marker_findings =
      if List.mem src.path warm_files && spans = [] then
        [
          finding ~check:"warm-alloc" ~src ~line:1 ~col:0
            "no \"(* warm-begin\" marker — the hot-path module lost its \
             warm-region annotations";
        ]
      else []
    in
    if spans = [] then marker_findings
    else
      match structure_of src with
      | None -> marker_findings
      | Some str ->
          let def_funs = definition_funs str in
          (* [a :: b] parses as a cons construct carrying a synthetic
             (head, tail) tuple — one allocation, not two.  Pre-order
             visiting sees the cons first, so its payload tuple can be
             remembered and skipped. *)
          let cons_payloads = Hashtbl.create 8 in
          let acc = ref [] in
          let flag e what =
            acc :=
              finding ~check:"warm-alloc" ~src ~line:(Ast_scan.line_of e)
                ~col:(Ast_scan.col_of e)
                (Printf.sprintf
                   "%s inside a warm region (zero-allocation contract; \
                    hoist to module level, move it past the warm-end \
                    marker, or put the cold fill in an exception branch)"
                   what)
              :: !acc
          in
          Ast_scan.iter_guarded str ~on_expr:(fun ctx e ->
              let line = Ast_scan.line_of e in
              let in_span =
                List.exists (fun (lo, hi) -> line >= lo && line <= hi) spans
              in
              (* Cold-fill idiom ([exception _ ->] branches) and
                 enable-flag-guarded branches are exempt: the first is
                 the documented miss path, the second never runs with
                 observability off — the guard itself is policed by
                 tap-zero-cost. *)
              let exempt =
                ctx.Ast_scan.cold
                || List.exists Ast_scan.mentions_on_flag ctx.Ast_scan.guards
              in
              if in_span && not exempt then
                match e.pexp_desc with
                | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
                    if not (Hashtbl.mem def_funs e.pexp_loc) then
                      flag e "closure literal"
                | Pexp_tuple _ ->
                    if not (Hashtbl.mem cons_payloads e.pexp_loc) then
                      flag e "tuple construction"
                | Pexp_array _ -> flag e "array literal"
                | Pexp_record _ -> flag e "record construction"
                | Pexp_lazy _ -> flag e "lazy suspension"
                | Pexp_construct ({ txt = Lident "::"; _ }, Some payload) ->
                    Hashtbl.replace cons_payloads payload.pexp_loc ();
                    flag e "list cons"
                | Pexp_construct ({ txt = Lident "Some"; _ }, Some _) ->
                    flag e "Some boxing"
                | Pexp_apply ({ pexp_desc = Pexp_ident l; _ }, _) -> (
                    match banned_combinator (Ast_scan.flatten l.txt) with
                    | Some what ->
                        flag e
                          (Printf.sprintf "%s (%s)" what
                             (String.concat "." (Ast_scan.flatten l.txt)))
                    | None -> ())
                | _ -> ());
          marker_findings @ List.rev !acc

(* --- check: layer-deps -------------------------------------------- *)

(* Violations delegated to the dedicated checks are skipped here so a
   single bad reference reports once: fleet -> hw is fleet-monopoly's,
   any -> replay is replay-confinement's. *)
let check_layer_deps ?graph (src : Source.t) =
  match Layer.dir_of_path src.Source.path with
  | None -> []
  | Some from_dir when Layer.layer_of_dir from_dir = None -> []
  | Some from_dir ->
      let own = Option.get (Layer.layer_of_dir from_dir) in
      let g = match graph with Some g -> g | None -> Layer.create () in
      let seen = Hashtbl.create 16 in
      List.filter_map
        (fun (r : Ast_scan.lid_ref) ->
          match Layer.record g ~from_dir r with
          | None -> None
          | Some (target, sub) ->
              let delegated =
                target.Layer.dir = "replay"
                || (from_dir = "fleet" && target.Layer.dir = "hw")
              in
              let key = (r.r_line, target.Layer.dir, sub) in
              if delegated || Hashtbl.mem seen key then None
              else begin
                Hashtbl.replace seen key ();
                if not (List.mem target.Layer.dir own.Layer.allowed) then
                  Some
                    (finding ~check:"layer-deps" ~src ~line:r.r_line
                       ~col:r.r_col
                       (Printf.sprintf
                          "lib/%s must not reference %s (lib/%s): not in \
                           the layer rule table"
                          from_dir target.Layer.root_module target.Layer.dir))
                else
                  match List.assoc_opt target.Layer.dir own.Layer.constrained with
                  | Some allowed_subs
                    when sub <> "" && not (List.mem sub allowed_subs) ->
                      Some
                        (finding ~check:"layer-deps" ~src ~line:r.r_line
                           ~col:r.r_col
                           (Printf.sprintf
                              "lib/%s may only use %s.{%s} — %s.%s is \
                               outside the tap surface"
                              from_dir target.Layer.root_module
                              (String.concat ", " allowed_subs)
                              target.Layer.root_module sub))
                  | _ -> None
              end)
        (Ast_scan.refs src)

(* --- check: determinism ------------------------------------------- *)

let wallclock_idents =
  [ [ "Random"; "self_init" ]; [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ] ]

let merge_layers = [ "lib/fleet"; "lib/harness" ]

let check_determinism (src : Source.t) =
  if not (in_lib src.path && src.kind = Source.Ml) then []
  else
    List.filter_map
      (fun (r : Ast_scan.lid_ref) ->
        if List.mem r.r_path wallclock_idents then
          Some
            (finding ~check:"determinism" ~src ~line:r.r_line ~col:r.r_col
               (Printf.sprintf
                  "%s breaks seeded reproducibility (DESIGN.md §11): derive \
                   every stream from the experiment seed"
                  (String.concat "." r.r_path)))
        else if
          in_any merge_layers src.path
          && (r.r_path = [ "Hashtbl"; "iter" ] || r.r_path = [ "Hashtbl"; "fold" ])
        then
          Some
            (finding ~check:"determinism" ~src ~line:r.r_line ~col:r.r_col
               (Printf.sprintf
                  "%s in a merge layer: iteration order is seed-dependent — \
                   canonicalize (sort) before merging fleet results"
                  (String.concat "." r.r_path)))
        else None)
      (Ast_scan.refs src)

(* --- tree check: mli-presence ------------------------------------- *)

let check_mli_presence (rels : string list) =
  List.filter_map
    (fun rel ->
      if in_lib rel && Filename.check_suffix rel ".ml" then
        let mli = rel ^ "i" in
        if List.mem mli rels then None
        else
          Some
            (Finding.v ~check:"mli-presence" ~file:rel ~line:1 ~col:0
               (Printf.sprintf "no interface (%s missing)" mli))
      else None)
    rels

(* --- tree check: unused-export ------------------------------------ *)

(* An interface and its implementation form one compilation unit. *)
let unit_of path = Filename.remove_extension path

(* The [val]s a signature exports, nested [module X : sig ... end]
   declarations included, as (name, line, col). *)
let rec sig_values acc (sg : signature) =
  List.fold_left
    (fun acc item ->
      match item.psig_desc with
      | Psig_value vd ->
          let p = vd.pval_loc.loc_start in
          (vd.pval_name.txt, p.pos_lnum, p.pos_cnum - p.pos_bol) :: acc
      | Psig_module md -> mty_values acc md.pmd_type
      | Psig_recmodule mds ->
          List.fold_left (fun acc md -> mty_values acc md.pmd_type) acc mds
      | _ -> acc)
    acc sg

and mty_values acc (mty : module_type) =
  match mty.pmty_desc with Pmty_signature sg -> sig_values acc sg | _ -> acc

(* Purely syntactic and name-based: any longident whose last component
   is the exported name counts as a use, wherever it resolves, so the
   check can miss dead code but never flags live code. *)
let check_unused_export (sources : Source.t list) =
  let users = Hashtbl.create 4096 in
  List.iter
    (fun (src : Source.t) ->
      let u = unit_of src.path in
      List.iter
        (fun (r : Ast_scan.lid_ref) ->
          match List.rev r.r_path with
          | name :: _ ->
              let us = Option.value ~default:[] (Hashtbl.find_opt users name) in
              if not (List.mem u us) then Hashtbl.replace users name (u :: us)
          | [] -> ())
        (Ast_scan.refs src))
    sources;
  List.concat_map
    (fun (src : Source.t) ->
      match src.ast with
      | Source.Intf sg when in_lib src.path ->
          let u = unit_of src.path in
          List.filter_map
            (fun (name, line, col) ->
              let us = Option.value ~default:[] (Hashtbl.find_opt users name) in
              if List.exists (fun v -> v <> u) us then None
              else
                Some
                  (finding ~check:"unused-export" ~src ~line ~col
                     (Printf.sprintf
                        "val %s is exported but no other compilation unit \
                         references it: delete it, or drop it from the \
                         interface"
                        name)))
            (List.rev (sig_values [] sg))
      | _ -> [])
    sources

(* --- the per-file registry ---------------------------------------- *)

let file_checks ?graph (src : Source.t) =
  check_no_print src
  @ check_guarded_obs src
  @ check_tap_zero_cost src
  @ check_fleet_monopoly src
  @ check_replay_confinement src
  @ check_warm_alloc src
  @ check_layer_deps ?graph src
  @ check_determinism src
