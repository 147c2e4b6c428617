(* The layer-dependency contract: which lib/ layer may reference which
   other layer's wrapped library module, declared as one table and
   checked against the longidents actually harvested from source.  The
   table mirrors the dune dependency stanzas (the build's ground
   truth) but is *stricter* where the architecture demands it — lib/hw
   may touch only the observability tap surface (Metrics/Span/
   Exporter/Vmexit and the Probe bus), never the exporter/profiler
   internals; lib/replay may touch only the Probe bus; and lib/fleet
   and lib/replay edges are owned by their dedicated checks. *)

type layer = {
  dir : string;  (* directory name under lib/ *)
  root_module : string;  (* wrapped library module, e.g. "Covirt_hw" *)
  allowed : string list;  (* referenced layer dirs this layer may use *)
  constrained : (string * string list) list;
      (* layer dir -> the only submodules of its root module that may
         be referenced (the "tap surface") *)
}

let table =
  [
    { dir = "sim"; root_module = "Covirt_sim"; allowed = []; constrained = [] };
    {
      dir = "obs";
      root_module = "Covirt_obs";
      allowed = [ "sim" ];
      constrained = [];
    };
    {
      dir = "hw";
      root_module = "Covirt_hw";
      allowed = [ "sim"; "obs" ];
      constrained =
        [ ("obs", [ "Metrics"; "Span"; "Exporter"; "Vmexit"; "Probe" ]) ];
    };
    {
      dir = "core";
      root_module = "Covirt";
      allowed = [ "sim"; "hw"; "pisces"; "obs" ];
      constrained = [];
    };
    {
      dir = "fleet";
      root_module = "Covirt_fleet";
      allowed = [ "sim" ];
      constrained = [];
    };
    {
      dir = "pisces";
      root_module = "Covirt_pisces";
      allowed = [ "sim"; "hw" ];
      constrained = [];
    };
    {
      dir = "kitten";
      root_module = "Covirt_kitten";
      allowed = [ "sim"; "hw"; "pisces" ];
      constrained = [];
    };
    {
      dir = "mckernel";
      root_module = "Covirt_mckernel";
      allowed = [ "sim"; "hw"; "pisces" ];
      constrained = [];
    };
    {
      dir = "mos";
      root_module = "Covirt_mos";
      allowed = [ "sim"; "hw"; "pisces" ];
      constrained = [];
    };
    {
      dir = "nautilus";
      root_module = "Covirt_nautilus";
      allowed = [ "sim"; "hw"; "pisces" ];
      constrained = [];
    };
    {
      dir = "xemem";
      root_module = "Covirt_xemem";
      allowed = [ "sim"; "hw"; "pisces" ];
      constrained = [];
    };
    {
      dir = "hobbes";
      root_module = "Covirt_hobbes";
      allowed = [ "sim"; "hw"; "pisces"; "kitten"; "xemem" ];
      constrained = [];
    };
    {
      dir = "workloads";
      root_module = "Covirt_workloads";
      allowed = [ "sim"; "hw"; "pisces"; "kitten" ];
      constrained = [];
    };
    {
      dir = "baselines";
      root_module = "Covirt_baselines";
      allowed = [ "sim"; "hw" ];
      constrained = [];
    };
    {
      dir = "analysis";
      root_module = "Covirt_analysis";
      allowed = [ "sim"; "hw"; "pisces"; "xemem"; "core" ];
      constrained = [];
    };
    {
      dir = "resilience";
      root_module = "Covirt_resilience";
      allowed =
        [ "sim"; "hw"; "pisces"; "kitten"; "hobbes"; "core"; "workloads";
          "obs"; "fleet" ];
      constrained = [];
    };
    {
      dir = "harness";
      root_module = "Covirt_harness";
      allowed =
        [ "sim"; "hw"; "pisces"; "kitten"; "xemem"; "hobbes"; "core";
          "workloads"; "resilience"; "baselines"; "nautilus"; "mckernel";
          "mos"; "obs"; "fleet" ];
      constrained = [];
    };
    {
      (* The load generator drives control paths only: it may not name
         lib/hw — hardware is reachable solely through the Pisces/
         Hobbes control plane it is exercising. *)
      dir = "loadgen";
      root_module = "Covirt_loadgen";
      allowed =
        [ "sim"; "obs"; "pisces"; "kitten"; "xemem"; "hobbes"; "core";
          "fleet"; "analysis"; "resilience" ];
      constrained = [];
    };
    {
      dir = "replay";
      root_module = "Covirt_replay";
      allowed =
        [ "sim"; "hw"; "kitten"; "pisces"; "hobbes"; "xemem"; "core";
          "analysis"; "resilience"; "fleet"; "obs" ];
      constrained = [ ("obs", [ "Probe" ]) ];
    };
    { dir = "lint"; root_module = "Covirt_lint"; allowed = []; constrained = [] };
  ]

let layer_of_dir dir = List.find_opt (fun l -> l.dir = dir) table

let layer_of_root_module m =
  List.find_opt (fun l -> l.root_module = m) table

(* "lib/hw/tlb.ml" -> Some "hw" *)
let dir_of_path path =
  match String.split_on_char '/' path with
  | "lib" :: dir :: _ :: _ -> Some dir
  | _ -> None

(* --- the reference graph --- *)

(* One edge per (from-layer, to-layer) with the set of referenced
   submodules of the target's root module ("" when the root module is
   referenced bare). *)
type edge = { e_from : string; e_to : string; mutable e_subs : string list }

type graph = { mutable edges : edge list }

let create () = { edges = [] }

let add_ref g ~from_dir ~to_dir ~sub =
  match
    List.find_opt (fun e -> e.e_from = from_dir && e.e_to = to_dir) g.edges
  with
  | Some e -> if not (List.mem sub e.e_subs) then e.e_subs <- sub :: e.e_subs
  | None -> g.edges <- { e_from = from_dir; e_to = to_dir; e_subs = [ sub ] } :: g.edges

(* Feed one harvested longident into the graph; returns the
   cross-layer target, if any, for the rule check. *)
let classify ~from_dir (r : Ast_scan.lid_ref) =
  match r.Ast_scan.r_path with
  | root :: rest -> (
      match layer_of_root_module root with
      | Some target when target.dir <> from_dir ->
          let sub = match rest with s :: _ -> s | [] -> "" in
          Some (target, sub)
      | _ -> None)
  | [] -> None

let record g ~from_dir r =
  match classify ~from_dir r with
  | Some (target, sub) ->
      add_ref g ~from_dir ~to_dir:target.dir ~sub;
      Some (target, sub)
  | None -> None

(* --- DOT rendering --- *)

let dot g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph covirt_layers {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  let nodes =
    List.sort_uniq String.compare
      (List.concat_map (fun e -> [ e.e_from; e.e_to ]) g.edges)
  in
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "  \"%s\";\n" n))
    nodes;
  let edges =
    List.sort
      (fun a b ->
        let c = String.compare a.e_from b.e_from in
        if c <> 0 then c else String.compare a.e_to b.e_to)
      g.edges
  in
  List.iter
    (fun e ->
      let subs =
        List.filter (fun s -> s <> "") (List.sort_uniq String.compare e.e_subs)
      in
      let label =
        match subs with [] -> "" | _ -> String.concat "\\n" subs
      in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%s\"];\n" e.e_from e.e_to
           label))
    edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
