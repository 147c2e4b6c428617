(* See admission.mli.  All arithmetic is integer and driven by caller-
   supplied clocks, so admission decisions are deterministic and
   per-tenant: one tenant's traffic (or crash) can never change the
   token arithmetic of another's bucket. *)

type reject =
  | Boot_limit of { in_flight : int; limit : int }
  | Rate_limited of { tenant : int; tokens_milli : int }

type token = { mutable settled : bool }

type bucket = { mutable level_milli : int; mutable last : int }

type t = {
  limit : int;
  capacity_milli : int;
  refill_cycles : int;
  buckets : (int, bucket) Hashtbl.t;
  mutable in_flight : int;
  mutable peak : int;
  mutable admitted : int;
  mutable rejected_boot : int;
  mutable rejected_rate : int;
}

let create ?(bucket_capacity = 8) ?(refill_cycles = 0) ~max_in_flight () =
  if max_in_flight <= 0 then invalid_arg "Admission.create: max_in_flight";
  if bucket_capacity <= 0 then invalid_arg "Admission.create: bucket_capacity";
  if refill_cycles < 0 then invalid_arg "Admission.create: refill_cycles";
  {
    limit = max_in_flight;
    capacity_milli = bucket_capacity * 1000;
    refill_cycles;
    buckets = Hashtbl.create 64;
    in_flight = 0;
    peak = 0;
    admitted = 0;
    rejected_boot = 0;
    rejected_rate = 0;
  }

let bucket t ~tenant ~now =
  match Hashtbl.find_opt t.buckets tenant with
  | Some b -> b
  | None ->
      (* A fresh tenant starts with a full bucket. *)
      let b = { level_milli = t.capacity_milli; last = now } in
      Hashtbl.add t.buckets tenant b;
      b

(* Whole tokens only; the cycle remainder stays banked in [last] so no
   refill credit is ever lost to integer division. *)
let refill t b ~now =
  if t.refill_cycles > 0 && now > b.last then begin
    let gained = (now - b.last) / t.refill_cycles in
    if gained > 0 then begin
      b.level_milli <- min t.capacity_milli (b.level_milli + (gained * 1000));
      b.last <- b.last + (gained * t.refill_cycles)
    end
  end

let take_token t ~tenant ~now =
  if t.refill_cycles = 0 then Ok ()
  else begin
    let b = bucket t ~tenant ~now in
    refill t b ~now;
    if b.level_milli >= 1000 then begin
      b.level_milli <- b.level_milli - 1000;
      Ok ()
    end
    else Error (Rate_limited { tenant; tokens_milli = b.level_milli })
  end

let admit_op t ~tenant ~now =
  match take_token t ~tenant ~now with
  | Ok () ->
      t.admitted <- t.admitted + 1;
      Ok ()
  | Error r ->
      t.rejected_rate <- t.rejected_rate + 1;
      Error r

let admit_boot t ~tenant ~now =
  if t.in_flight >= t.limit then begin
    t.rejected_boot <- t.rejected_boot + 1;
    Error (Boot_limit { in_flight = t.in_flight; limit = t.limit })
  end
  else
    match take_token t ~tenant ~now with
    | Error r ->
        t.rejected_rate <- t.rejected_rate + 1;
        Error r
    | Ok () ->
        t.in_flight <- t.in_flight + 1;
        if t.in_flight > t.peak then t.peak <- t.in_flight;
        t.admitted <- t.admitted + 1;
        Ok { settled = false }

let settle t tok =
  if not tok.settled then begin
    tok.settled <- true;
    t.in_flight <- t.in_flight - 1
  end

let in_flight t = t.in_flight
let peak_in_flight t = t.peak
let max_in_flight t = t.limit
let admitted t = t.admitted
let rejected_boot_limit t = t.rejected_boot
let rejected_rate_limited t = t.rejected_rate
let tracked_tenants t = Hashtbl.length t.buckets
