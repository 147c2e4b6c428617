(* Coverage-guided trace-mutation fuzzing, sharded across fleet
   domains.

   One fuzz trial = one shard: pick a mutation base (an explicit
   [base], a seeded corpus entry, or a freshly recorded two-trial
   batch), apply 1–n seeded mutations, replay the mutant with the full
   oracle battery, and minimize any crash in-shard.  With [coverage]
   the replay runs under the Coverage taps; a mutant whose map holds
   an edge the corpus lacks is a promotion candidate, pre-shrunk
   in-shard under [Minimizer ~preserve_edges] so the corpus
   accumulates small entries without losing the edges that earned
   them.

   Every decision derives from the shard seed (Rng.split_seed), and
   the merge — including which candidates are promoted against the
   accumulating coverage — is a pure left fold in shard-index order,
   so the fuzz result is byte-identical whatever the domain count,
   exactly like the campaign and the soak.

   Mutation operators (the "where do I add a mutator" list —
   ARCHITECTURE.md points here):
   - dup-input: duplicate an input event within its slot
   - reorder: swap the slots of two input events
   - truncate: drop a suffix of the event list
   - mutate-fault: rewrite a recorded fault's payload fields
   - mutate-exit: replay an observed exit as a synthetic input with a
     perturbed register field
   - inject-corrupt: plant one of the four corruption classes, chosen
     among the classes the trial's config can detect
   - xemem-interleave: insert an attach/detach pair across two seeded
     slots (stressing the name service and grant lifecycle)
   - spawn-enclave: launch an extra enclave in a seeded zone,
     widening the run to a multi-enclave scenario

   Soak-shard bases (from the corpus) mutate their scenario
   parameters instead — seed, trial range, sanitizer arming — since
   a soak replay regenerates its inputs from the shard seed. *)

module Rng = Covirt_sim.Rng

type finding = {
  digest : string;  (** of the {e minimized} trace *)
  shard : int;
  slot : int;
  exn : string;
  trace : Trace.t;  (** minimized reproducer *)
  probes : int;  (** replays the minimizer spent *)
}

type result = {
  trials : int;
  seed : int;
  mutations : int;
  crashes : finding list;
  planted : (Trace.corruption * int) list;
  detected : (Trace.corruption * int) list;
  escapes : (Trace.corruption * int) list;
      (** planted in a trial where no oracle flagged the class *)
  divergences : int;
  execs : int;
  execs_per_shard : (int * int) list;
  coverage : Coverage.t option;
  new_edges : int;
  promoted : Corpus.entry list;
  corpus_size : int;
}

(* Configs worth fuzzing (native has no controller instances to
   corrupt), and the corruption classes whose oracles can fire under
   each: EPT corruptions need an EPT, freed-access needs EPT
   enforcement {e off} (a protected config suppresses the stale store
   before the shadow sees it). *)
let fuzz_configs = [ "none"; "mem"; "ipi"; "mem+ipi"; "full" ]

let classes_for = function
  | "none" -> [ Trace.Freed_access; Trace.Stale_grant ]
  | "ipi" -> [ Trace.Stale_grant ]
  | _ -> [ Trace.Cross_owner; Trace.Free_map; Trace.Stale_grant ]

let pick rng lst = List.nth lst (Rng.int rng ~bound:(List.length lst))

(* --- mutation operators ---------------------------------------------- *)

let input_positions events =
  List.concat
    (List.mapi (fun i ev -> if Trace.is_input ev then [ i ] else []) events)

let exit_positions events =
  List.concat
    (List.mapi
       (fun i ev -> match ev with Trace.Exit _ -> [ i ] | _ -> [])
       events)

let with_slot slot = function
  | Trace.Fault { fault; _ } -> Trace.Fault { slot; fault }
  | Trace.Inject_exit { reason; _ } -> Trace.Inject_exit { slot; reason }
  | Trace.Corrupt { cls; _ } -> Trace.Corrupt { slot; cls }
  | Trace.Xemem_op { attach; _ } -> Trace.Xemem_op { slot; attach }
  | Trace.Spawn { zone; _ } -> Trace.Spawn { slot; zone }
  | Trace.Exit _ as e -> e

let mutate_fault_payload rng = function
  | Trace.F_wild _ -> Trace.F_wild (Rng.int rng ~bound:(1 lsl 33))
  | Trace.F_phantom _ -> Trace.F_phantom (Rng.int rng ~bound:(1 lsl 33))
  | Trace.F_ipi _ ->
      Trace.F_ipi
        { dest = Rng.int rng ~bound:8; vector = Rng.int rng ~bound:256 }
  | Trace.F_wedge _ ->
      Trace.F_wedge { cycles = 1 + Rng.int rng ~bound:10_000_000 }
  | (Trace.F_msr | Trace.F_port | Trace.F_double) as f ->
      (* payload-free faults mutate into a payload-bearing one *)
      ignore f;
      Trace.F_wild (Rng.int rng ~bound:(1 lsl 33))

let mutate_exit_payload rng = function
  | Trace.X_ept { access; not_mapped; _ } ->
      Trace.X_ept { gpa = Rng.int rng ~bound:(1 lsl 33); access; not_mapped }
  | Trace.X_icr { kind; _ } ->
      Trace.X_icr
        { dest = Rng.int rng ~bound:8; vector = Rng.int rng ~bound:256; kind }
  | Trace.X_msr { msr; write; _ } ->
      Trace.X_msr { msr; write; value = Rng.bits64 rng }
  | Trace.X_io { port; write; _ } ->
      Trace.X_io { port; write; value = Rng.int rng ~bound:(1 lsl 16) }
  | Trace.X_intr _ -> Trace.X_intr { vector = Rng.int rng ~bound:256 }
  | p -> p

(* Insert an input ahead of its slot's other inputs (so it lands
   before a same-slot fault can panic the node). *)
let insert_input ev events =
  let slot = Trace.slot_of ev in
  let rec insert = function
    | [] -> [ ev ]
    | e :: rest when Trace.is_input e && Trace.slot_of e = slot ->
        ev :: e :: rest
    | e :: rest -> e :: insert rest
  in
  insert events

let apply_mutation rng ~config ~trials events =
  let op = Rng.int rng ~bound:8 in
  let inputs = input_positions events in
  let exits = exit_positions events in
  match op with
  | 0 when inputs <> [] ->
      (* dup-input *)
      let i = pick rng inputs in
      let ev = List.nth events i in
      List.concat (List.mapi (fun j e -> if j = i then [ e; ev ] else [ e ]) events)
  | 1 when List.length inputs >= 2 ->
      (* reorder: swap the slots of two inputs *)
      let i = pick rng inputs in
      let j = pick rng inputs in
      let si = Trace.slot_of (List.nth events i) in
      let sj = Trace.slot_of (List.nth events j) in
      List.mapi
        (fun k e ->
          if k = i then with_slot sj e
          else if k = j then with_slot si e
          else e)
        events
  | 2 when events <> [] ->
      (* truncate: drop a suffix *)
      let keep = 1 + Rng.int rng ~bound:(List.length events) in
      List.filteri (fun i _ -> i < keep) events
  | 3 when inputs <> [] -> (
      (* mutate-fault *)
      let faults =
        List.filter
          (fun i ->
            match List.nth events i with Trace.Fault _ -> true | _ -> false)
          inputs
      in
      match faults with
      | [] -> events
      | _ ->
          let i = pick rng faults in
          List.mapi
            (fun j e ->
              match (j = i, e) with
              | true, Trace.Fault { slot; fault } ->
                  Trace.Fault { slot; fault = mutate_fault_payload rng fault }
              | _ -> e)
            events)
  | 4 when exits <> [] ->
      (* mutate-exit: replay a perturbed observed exit as an input *)
      let i = pick rng exits in
      let ev =
        match List.nth events i with
        | Trace.Exit { slot; reason; _ } ->
            Trace.Inject_exit
              { slot; reason = mutate_exit_payload rng reason }
        | e -> e
      in
      events @ [ ev ]
  | 6 ->
      (* xemem-interleave: an attach and a detach across two seeded
         slots — same-slot order is attach first when the slots
         collide, detach-before-attach when they don't, so both
         lifecycle orders get exercised. *)
      let bound = max 1 trials in
      let s_attach = Rng.int rng ~bound in
      let s_detach = Rng.int rng ~bound in
      insert_input
        (Trace.Xemem_op { slot = s_attach; attach = true })
        (insert_input
           (Trace.Xemem_op { slot = s_detach; attach = false })
           events)
  | 7 ->
      (* spawn-enclave *)
      let slot = Rng.int rng ~bound:(max 1 trials) in
      let zone = Rng.int rng ~bound:2 in
      insert_input (Trace.Spawn { slot; zone }) events
  | _ ->
      (* inject-corrupt *)
      let cls = pick rng (classes_for config) in
      let slot = Rng.int rng ~bound:(max 1 trials) in
      insert_input (Trace.Corrupt { slot; cls }) events

(* A soak-shard base regenerates its inputs from the shard seed, so
   mutation perturbs the scenario parameters instead of the events. *)
let mutate_soak rng = function
  | Trace.Soak_shard { seed; lo; hi; sanitize } -> (
      match Rng.int rng ~bound:3 with
      | 0 -> Trace.Soak_shard { seed = Rng.int rng ~bound:1_000_000; lo; hi; sanitize }
      | 1 ->
          let hi = lo + 1 + Rng.int rng ~bound:(max 1 (hi - lo + 2)) in
          Trace.Soak_shard { seed; lo; hi; sanitize }
      | _ -> Trace.Soak_shard { seed; lo; hi; sanitize = not sanitize })
  | s -> s

(* --- one fuzz trial --------------------------------------------------- *)

type shard_out = {
  s_crashes : finding list;
  s_planted : Trace.corruption list;
  s_detected : Trace.corruption list;
  s_escapes : Trace.corruption list;
  s_diverged : bool;
  s_mutant : Trace.t;
  s_coverage : Coverage.t option;
  s_execs : int;
}

let fuzz_one ~shard_seed ~index ~base ~corpus ~guided ~baseline ~mutations
    ~minimize_probes =
  let rng = Rng.create ~seed:shard_seed in
  let execs = ref 0 in
  let config = pick rng fuzz_configs in
  let base_trace =
    match (base, corpus) with
    | Some t, _ -> t
    | None, [] ->
        incr execs;
        (Scenario.record ~config
           ~seed:(Rng.split_seed ~seed:shard_seed ~index:1)
           ~trials:2 ())
          .Scenario.trace
    | None, entries -> (pick rng entries).Corpus.trace
  in
  let config, trials =
    match base_trace.Trace.scenario with
    | Trace.Trial_batch { config; trials; _ } -> (config, trials)
    | Trace.Soak_shard _ -> (config, 2)
  in
  let n_mut = 1 + Rng.int rng ~bound:(max 1 mutations) in
  let mutant =
    match base_trace.Trace.scenario with
    | Trace.Soak_shard _ ->
        let scenario = ref base_trace.Trace.scenario in
        for _ = 1 to n_mut do
          scenario := mutate_soak rng !scenario
        done;
        Trace.make ~schedule_json:base_trace.Trace.schedule_json
          ~scenario:!scenario base_trace.Trace.events
    | Trace.Trial_batch _ ->
        let events = ref base_trace.Trace.events in
        for _ = 1 to n_mut do
          events := apply_mutation rng ~config ~trials !events
        done;
        Trace.make ~schedule_json:base_trace.Trace.schedule_json
          ~scenario:base_trace.Trace.scenario !events
  in
  let was_collecting = Coverage.collecting () in
  if guided then begin
    Coverage.arm ();
    (* discard anything base recording contributed *)
    ignore (Coverage.capture () : Coverage.t)
  end;
  incr execs;
  let report = Replayer.run mutant in
  let cov = if guided then Some (Coverage.capture ()) else None in
  (* The determinism oracle, sampled: replay the re-capture and demand
     a fixed point. *)
  let diverged =
    index mod 8 = 0
    &&
    (incr execs;
     not
       (Trace.equal report.Scenario.trace
          (Replayer.run report.Scenario.trace).Scenario.trace))
  in
  let minimizable =
    match mutant.Trace.scenario with
    | Trace.Trial_batch _ -> true
    | Trace.Soak_shard _ -> false
  in
  let crashes =
    List.map
      (fun (slot, exn) ->
        let minimized, probes =
          if minimizable then begin
            let m, stats =
              Minimizer.minimize ~max_probes:minimize_probes mutant
            in
            execs := !execs + stats.Minimizer.probes;
            (m, stats.Minimizer.probes)
          end
          else (mutant, 0)
        in
        {
          digest = Trace.digest minimized;
          shard = index;
          slot;
          exn;
          trace = minimized;
          probes;
        })
      report.Scenario.crashes
  in
  (* Promotion candidate: pre-shrink it in-shard, keeping its whole
     map covered, so whatever the merge fold promotes is already
     small.  The global fold still decides — an edge new against the
     shared baseline may have been claimed by an earlier shard. *)
  let mutant, cov =
    match cov with
    | Some c
      when minimizable && crashes = []
           && Coverage.new_edges c ~base:baseline > 0 -> (
        let m, stats =
          Minimizer.minimize
            ~keep:(fun _ -> true)
            ~preserve_edges:c
            ~max_probes:(min minimize_probes 32)
            mutant
        in
        execs := !execs + stats.Minimizer.probes;
        (m, Some c))
    | _ -> (mutant, cov)
  in
  if guided && not was_collecting then Coverage.disarm ();
  {
    s_crashes = crashes;
    s_planted = report.Scenario.planted;
    s_detected = report.Scenario.detected;
    s_escapes =
      List.filter
        (fun cls -> not (List.mem cls report.Scenario.detected))
        report.Scenario.planted;
    s_diverged = diverged;
    s_mutant = mutant;
    s_coverage = cov;
    s_execs = !execs;
  }

(* --- the sharded run -------------------------------------------------- *)

let count_classes occurrences =
  List.filter_map
    (fun cls ->
      match List.length (List.filter (( = ) cls) occurrences) with
      | 0 -> None
      | n -> Some (cls, n))
    Trace.corruptions

let run ?(trials = 100) ?(seed = 2026) ?(mutations = 3) ?domains ?base
    ?(corpus = []) ?(coverage = false) ?(minimize_probes = 64) () =
  (* The sticky sanitizer request must move outside the fleet: every
     shard's [Covirt.enable] sets it (config.sanitize), so restore the
     caller's state only after all shards joined. *)
  let had_request = Covirt_hw.Sanitize.requested () in
  let baseline =
    if coverage then Corpus.union_coverage corpus else Coverage.empty
  in
  let outs =
    Covirt_fleet.Fleet.map ?domains ~seed ~shards:trials
      (fun ~shard_seed ~index ->
        fuzz_one ~shard_seed ~index ~base ~corpus ~guided:coverage ~baseline
          ~mutations ~minimize_probes)
  in
  if not had_request then Covirt_hw.Sanitize.release ();
  let outs = Array.to_list outs in
  let all f = List.concat_map f outs in
  let crashes =
    (* Dedupe by minimized digest, keeping the first shard that found
       each — a pure fold in shard order. *)
    List.fold_left
      (fun acc c ->
        if List.exists (fun c' -> c'.digest = c.digest) acc then acc
        else acc @ [ c ])
      []
      (all (fun o -> o.s_crashes))
  in
  (* Promotion: a pure left fold in shard-index order against the
     accumulating coverage, starting from the corpus baseline — the
     same entries are promoted at any domain count.  Crashing mutants
     are never promoted (they become reproducers instead). *)
  let promoted, total_cov =
    List.fold_left
      (fun (acc, cov) o ->
        match o.s_coverage with
        | Some c when o.s_crashes = [] && Coverage.new_edges c ~base:cov > 0 ->
            ( acc @ [ { Corpus.trace = o.s_mutant; coverage = c } ],
              Coverage.union cov c )
        | Some c -> (acc, Coverage.union cov c)
        | None -> (acc, cov))
      ([], baseline) outs
  in
  {
    trials;
    seed;
    mutations;
    crashes;
    planted = count_classes (all (fun o -> o.s_planted));
    detected = count_classes (all (fun o -> o.s_detected));
    escapes = count_classes (all (fun o -> o.s_escapes));
    divergences = List.length (List.filter (fun o -> o.s_diverged) outs);
    execs = List.fold_left (fun acc o -> acc + o.s_execs) 0 outs;
    execs_per_shard = List.mapi (fun i o -> (i, o.s_execs)) outs;
    coverage = (if coverage then Some total_cov else None);
    new_edges =
      (if coverage then Coverage.new_edges total_cov ~base:baseline else 0);
    promoted;
    corpus_size = List.length corpus + List.length promoted;
  }

let table r =
  let t = Covirt_sim.Table.create ~columns:[ "metric"; "value" ] in
  let add m v = Covirt_sim.Table.add_row t [ m; v ] in
  add "fuzz trials" (string_of_int r.trials);
  add "seed" (string_of_int r.seed);
  add "crashes (unique)" (string_of_int (List.length r.crashes));
  add "replay divergences" (string_of_int r.divergences);
  add "execs (replays)" (string_of_int r.execs);
  (match r.execs_per_shard with
  | [] -> ()
  | (_, e0) :: _ ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (_, e) -> (min lo e, max hi e))
          (e0, e0) r.execs_per_shard
      in
      add "execs/shard min..max" (Printf.sprintf "%d..%d" lo hi));
  (match r.coverage with
  | None -> ()
  | Some cov ->
      add "coverage edges"
        (Printf.sprintf "%d/%d" (Coverage.count cov) Coverage.total);
      add "new edges" (string_of_int r.new_edges);
      add "corpus size"
        (Printf.sprintf "%d (+%d promoted)" r.corpus_size
           (List.length r.promoted));
      add "new-edge rate"
        (Printf.sprintf "%d/%d mutants" (List.length r.promoted) r.trials));
  List.iter
    (fun cls ->
      let get l = Option.value ~default:0 (List.assoc_opt cls l) in
      add
        (Trace.corruption_name cls ^ " planted/detected")
        (Printf.sprintf "%d/%d" (get r.planted) (get r.detected)))
    Trace.corruptions;
  List.iter
    (fun f ->
      add
        ("crash " ^ String.sub f.digest 0 12)
        (Printf.sprintf "shard %d slot %d: %s" f.shard f.slot f.exn))
    r.crashes;
  t
