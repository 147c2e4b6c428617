open Covirt_hw
open Covirt_kitten

type detour = { at_us : float; duration_us : float; cause : string }

type result = {
  detours : detour list;
  histogram : Covirt_sim.Histogram.t;
  total_detour_us : float;
  noise_fraction : float;
}

(* Background (non-timer) noise defaults for an LWK: rare housekeeping
   and SMI-class events.  Mean interarrival 200ms, ~2.5us each — the
   kind of residue even Kitten cannot eliminate. *)
let default_background_mean_s = 0.2
let default_background_cost_cycles = 4200

let run_on_cpu machine cpu ?(duration_s = 2.0) ?(threshold_cycles = 100)
    ?(background_mean_s = default_background_mean_s)
    ?(background_cost_cycles = default_background_cost_cycles) () =
  let model = machine.Machine.model in
  let ghz = model.Cost_model.ghz in
  let rng = Covirt_sim.Rng.split machine.Machine.rng in
  let hz = Apic.timer_hz cpu.Cpu.apic in
  let duration_cycles = Covirt_sim.Units.seconds_to_cycles ~ghz duration_s in
  let tick_interval =
    if hz > 0.0 then int_of_float (ghz *. 1e9 /. hz) else max_int
  in
  let histogram =
    Covirt_sim.Histogram.create_log ~base:1.6 ~lo:0.1 ~hi:10_000.0
  in
  let detours = ref [] in
  let total = ref 0.0 in
  (* Walk the timeline merging the deterministic tick train with the
     stochastic background events; each event's duration is measured
     with the core's real mode-dependent delivery cost. *)
  let next_background = ref 0 in
  let draw_background at =
    at
    + Covirt_sim.Units.seconds_to_cycles ~ghz
        (Covirt_sim.Rng.exponential rng ~mean:background_mean_s)
  in
  next_background := draw_background 0;
  let next_tick = ref tick_interval in
  let record ~at ~cycles ~cause =
    if cycles > threshold_cycles then begin
      let d =
        {
          at_us = Covirt_sim.Units.cycles_to_us ~ghz at;
          duration_us = Covirt_sim.Units.cycles_to_us ~ghz cycles;
          cause;
        }
      in
      detours := d :: !detours;
      Covirt_sim.Histogram.add histogram d.duration_us;
      total := !total +. d.duration_us
    end
  in
  let tick_cost () =
    (* Real delivery through the machine so exit paths are exercised
       and charged; jitter models handler cache state. *)
    let before = Cpu.rdtsc cpu in
    Machine.timer_tick machine cpu;
    let measured = Cpu.rdtsc cpu - before in
    let jitter = Covirt_sim.Rng.gaussian rng ~mu:0.0 ~sigma:0.05 in
    int_of_float (float_of_int measured *. (1.0 +. jitter))
  in
  let finished at = at >= duration_cycles in
  let rec loop () =
    let at = min !next_tick !next_background in
    if not (finished at) then begin
      if !next_tick <= !next_background then begin
        record ~at ~cycles:(tick_cost ()) ~cause:"timer";
        next_tick := !next_tick + tick_interval
      end
      else begin
        let cycles =
          int_of_float
            (float_of_int background_cost_cycles
            *. (1.0 +. Covirt_sim.Rng.gaussian rng ~mu:0.0 ~sigma:0.15))
        in
        record ~at ~cycles ~cause:"background";
        next_background := draw_background !next_background
      end;
      loop ()
    end
  in
  loop ();
  (* The spin loop itself advances the core's clock. *)
  Cpu.charge cpu duration_cycles;
  {
    detours = List.rev !detours;
    histogram;
    total_detour_us = !total;
    noise_fraction = !total /. (duration_s *. 1e6);
  }

let run (ctx : Kitten.context) ?duration_s ?threshold_cycles
    ?background_mean_s ?background_cost_cycles () =
  run_on_cpu ctx.Kitten.machine ctx.Kitten.cpu ?duration_s ?threshold_cycles
    ?background_mean_s ?background_cost_cycles ()
