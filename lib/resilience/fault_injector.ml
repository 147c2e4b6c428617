open Covirt_hw
open Covirt_kitten

type fault =
  | Wild_write of Addr.t
  | Phantom_touch of Addr.t
  | Errant_ipi of { dest : int; vector : int }
  | Msr_write
  | Port_reset
  | Double_fault
  | Wedge of { cycles : int }

let pp_fault ppf = function
  | Wild_write a -> Format.fprintf ppf "wild-write %a" Addr.pp a
  | Phantom_touch a -> Format.fprintf ppf "phantom-touch %a" Addr.pp a
  | Errant_ipi { dest; vector } ->
      Format.fprintf ppf "errant-ipi core%d vec%d" dest vector
  | Msr_write -> Format.pp_print_string ppf "msr-write"
  | Port_reset -> Format.pp_print_string ppf "port-reset"
  | Double_fault -> Format.pp_print_string ppf "double-fault"
  | Wedge { cycles } -> Format.fprintf ppf "wedge %d cycles" cycles

let is_wedge = function Wedge _ -> true | _ -> false

type trigger = At_trial of int | Every_n_trials of int | At_cycle of int

type rule = { target : string; trigger : trigger; fault : fault }

type armed_rule = { rule : rule; mutable fired : bool }

type t = {
  seed : int;
  rng : Covirt_sim.Rng.t;
  rules : armed_rule list;
  mutable applied : int;
}

let create ~seed ?(rules = []) () =
  {
    seed;
    rng = Covirt_sim.Rng.create ~seed;
    rules = List.map (fun rule -> { rule; fired = false }) rules;
    applied = 0;
  }

let seed t = t.seed

(* The campaign's original fault distribution, draw-for-draw: six
   classes, uniform, with addresses spread over physical memory. *)
let draw t ~machine_mem ~victim_bsp =
  match Covirt_sim.Rng.int t.rng ~bound:6 with
  | 0 ->
      (* anywhere in physical memory, 8-byte aligned *)
      Wild_write (Covirt_sim.Rng.int t.rng ~bound:(machine_mem / 8) * 8)
  | 1 ->
      let page =
        Covirt_sim.Rng.int t.rng ~bound:(machine_mem / Addr.page_size_2m)
      in
      Phantom_touch (page * Addr.page_size_2m)
  | 2 ->
      Errant_ipi
        { dest = victim_bsp; vector = Covirt_sim.Rng.int t.rng ~bound:256 }
  | 3 -> Msr_write
  | 4 -> Port_reset
  | 5 -> Double_fault
  | _ -> assert false

type schedule_status = Due of fault list | End_of_schedule

(* A rule can never fire again once a one-shot trigger is consumed;
   [Every_n_trials] keeps a schedule live forever. *)
let rule_spent armed =
  match armed.rule.trigger with
  | At_trial _ | At_cycle _ -> armed.fired
  | Every_n_trials n -> n <= 0

let schedule_exhausted t = t.rules <> [] && List.for_all rule_spent t.rules

let due t ~target ~trial ~now =
  let faults =
    List.filter_map
      (fun armed ->
        let { target = rule_target; trigger; fault } = armed.rule in
        if rule_target <> target then None
        else
          match trigger with
          | At_trial n ->
              if (not armed.fired) && trial = n then begin
                armed.fired <- true;
                Some fault
              end
              else None
          | Every_n_trials n ->
              if n > 0 && trial mod n = 0 then Some fault else None
          | At_cycle c ->
              if (not armed.fired) && now >= c then begin
                armed.fired <- true;
                Some fault
              end
              else None)
      t.rules
  in
  (* An exhausted schedule answers typed, not with a silent no-op:
     callers can stop consulting it (and a replayer knows the trace
     carries every fault the schedule will ever produce). *)
  if faults = [] && schedule_exhausted t then End_of_schedule else Due faults

(* Record tap for the replay recorder — same zero-cost contract as
   [Covirt_hw.Vmx.exit_tap]: one branch when disarmed, and the tap
   never charges cycles or draws randomness. *)
let tap_on = ref false
let inject_tap : (fault -> unit) ref = ref (fun _ -> ())

(* Coverage tap (the replay fuzzer's guidance): dense fault-class
   codes in declaration order.  Same zero-cost contract as
   [inject_tap]. *)
let cov_on = ref false
let cov_tap : (int -> unit) ref = ref (fun _ -> ())

let fault_code = function
  | Wild_write _ -> 0
  | Phantom_touch _ -> 1
  | Errant_ipi _ -> 2
  | Msr_write -> 3
  | Port_reset -> 4
  | Double_fault -> 5
  | Wedge _ -> 6

let inject t (ctx : Kitten.context) fault =
  t.applied <- t.applied + 1;
  if !tap_on then !inject_tap fault;
  if !cov_on then !cov_tap (fault_code fault);
  match fault with
  | Wild_write addr -> Kitten.store_addr ctx addr
  | Phantom_touch addr ->
      Kitten.inject_phantom_region ctx.Kitten.kernel
        (Region.make
           ~base:(Addr.page_down addr ~size:Addr.page_size_2m)
           ~len:Addr.page_size_2m);
      Kitten.store_addr ctx addr
  | Errant_ipi { dest; vector } -> Kitten.send_ipi ctx ~dest ~vector
  | Msr_write -> Kitten.wrmsr_sensitive ctx
  | Port_reset -> Kitten.out_reset_port ctx
  | Double_fault -> Kitten.trigger_double_fault ctx
  | Wedge { cycles } -> Kitten.spin_wedged ctx ~cycles

let injected t = t.applied

(* ------------------------------------------------------------------ *)
(* Schedule serialization: a trace must fully determine the faults a
   replayed run injects, so the seeded schedule travels as JSON inside
   the trace header (and in quarantine-capture sidecars), fired flags
   included. *)

let fault_to_json = function
  | Wild_write a -> Printf.sprintf {|{"kind":"wild-write","addr":%d}|} a
  | Phantom_touch a -> Printf.sprintf {|{"kind":"phantom-touch","addr":%d}|} a
  | Errant_ipi { dest; vector } ->
      Printf.sprintf {|{"kind":"errant-ipi","dest":%d,"vector":%d}|} dest vector
  | Msr_write -> {|{"kind":"msr-write"}|}
  | Port_reset -> {|{"kind":"port-reset"}|}
  | Double_fault -> {|{"kind":"double-fault"}|}
  | Wedge { cycles } -> Printf.sprintf {|{"kind":"wedge","cycles":%d}|} cycles

let trigger_to_json = function
  | At_trial n -> Printf.sprintf {|{"kind":"at-trial","n":%d}|} n
  | Every_n_trials n -> Printf.sprintf {|{"kind":"every-n-trials","n":%d}|} n
  | At_cycle c -> Printf.sprintf {|{"kind":"at-cycle","cycle":%d}|} c

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let schedule_to_json t =
  let rule armed =
    Printf.sprintf {|{"target":"%s","trigger":%s,"fired":%b,"fault":%s}|}
      (json_escape armed.rule.target)
      (trigger_to_json armed.rule.trigger)
      armed.fired
      (fault_to_json armed.rule.fault)
  in
  Printf.sprintf {|{"seed":%d,"rules":[%s]}|} t.seed
    (String.concat "," (List.map rule t.rules))
