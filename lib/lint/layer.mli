(** The declared layer-dependency rule table and the reference graph
    extracted from source, with DOT rendering. *)

type layer = {
  dir : string;  (** directory name under [lib/] *)
  root_module : string;  (** wrapped library module, e.g. ["Covirt_hw"] *)
  allowed : string list;  (** layer dirs this layer may reference *)
  constrained : (string * string list) list;
      (** target layer dir -> only these submodules of its root module
          may be referenced (the tap surface) *)
}

(** The rule table, one entry per lib/ layer. *)
val table : layer list

val layer_of_dir : string -> layer option

(** ["lib/hw/tlb.ml"] -> [Some "hw"]. *)
val dir_of_path : string -> string option

type edge = { e_from : string; e_to : string; mutable e_subs : string list }
type graph = { mutable edges : edge list }

val create : unit -> graph

(** Classify a harvested longident from a file in [from_dir]: the
    cross-layer target and first submodule component, if the root is a
    known library module of another layer. *)
val classify :
  from_dir:string -> Ast_scan.lid_ref -> (layer * string) option

(** [record g ~from_dir r] adds the cross-layer edge (if any) to the
    graph and returns it for rule checking. *)
val record :
  graph -> from_dir:string -> Ast_scan.lid_ref -> (layer * string) option

(** Render the accumulated graph as GraphViz DOT (deterministic
    ordering: nodes and edges sorted). *)
val dot : graph -> string
