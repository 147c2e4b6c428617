(* Cycle attribution per exit reason and per guest phase.  Ambient but
   per-domain (Domain-local storage) so fleet shards attribute into
   their own tables; the record path is one DLS read plus two
   hashtable upserts on pre-allocated mutable rows. *)

type acc = { mutable a_exits : int; mutable a_cycles : int }

type state = {
  reasons : (string, acc) Hashtbl.t;
  mutable reason_order : string list; (* newest first *)
  phases : (string, acc) Hashtbl.t;
  mutable phase_order : string list; (* newest first *)
  mutable phase : string;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        reasons = Hashtbl.create 16;
        reason_order = [];
        phases = Hashtbl.create 16;
        phase_order = [];
        phase = "";
      })

let state () = Domain.DLS.get key

let set_phase name = (state ()).phase <- name

let bump table set_order order key ~cycles =
  let a =
    match Hashtbl.find_opt table key with
    | Some a -> a
    | None ->
        let a = { a_exits = 0; a_cycles = 0 } in
        Hashtbl.replace table key a;
        set_order (key :: order);
        a
  in
  a.a_exits <- a.a_exits + 1;
  a.a_cycles <- a.a_cycles + cycles

let record ~reason ~cycles =
  let s = state () in
  bump s.reasons (fun o -> s.reason_order <- o) s.reason_order reason ~cycles;
  bump s.phases (fun o -> s.phase_order <- o) s.phase_order s.phase ~cycles

type row = { key : string; exits : int; cycles : int }

let rows table order =
  List.rev_map
    (fun key ->
      let a = Hashtbl.find table key in
      { key; exits = a.a_exits; cycles = a.a_cycles })
    order

let by_reason () =
  let s = state () in
  List.sort (fun a b -> compare b.cycles a.cycles) (rows s.reasons s.reason_order)

let by_phase () =
  let s = state () in
  rows s.phases s.phase_order

let render ~title ~key_col rws =
  let total = List.fold_left (fun acc r -> acc + r.cycles) 0 rws in
  let t =
    Covirt_sim.Table.create
      ~columns:[ key_col; "exits"; "cycles"; "cyc/exit"; "share" ]
  in
  List.iter
    (fun r ->
      let mean =
        if r.exits = 0 then 0. else float_of_int r.cycles /. float_of_int r.exits
      in
      let share =
        if total = 0 then 0. else float_of_int r.cycles /. float_of_int total
      in
      Covirt_sim.Table.add_row t
        [
          r.key;
          string_of_int r.exits;
          string_of_int r.cycles;
          Covirt_sim.Table.cell_f mean;
          Covirt_sim.Table.cell_pct share;
        ])
    rws;
  Printf.sprintf "%s\n%s" title (Covirt_sim.Table.render t)

let attribution_table () =
  render ~title:"cycle attribution by exit reason" ~key_col:"exit reason"
    (by_reason ())

let phase_table () =
  render ~title:"cycle attribution by phase" ~key_col:"phase" (by_phase ())

let reset () =
  let s = state () in
  Hashtbl.reset s.reasons;
  s.reason_order <- [];
  Hashtbl.reset s.phases;
  s.phase_order <- []
