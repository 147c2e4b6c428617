type ipi_kind = Fixed | Nmi | Init | Startup

type icr = { dest : int; vector : int; kind : ipi_kind }

type t = {
  irr : bool array; (* 256 vectors *)
  pir : bool array;
  mutable nmi_pending : bool;
  mutable timer_hz : float;
  mutable sent : int;
}

let create () =
  {
    irr = Array.make 256 false;
    pir = Array.make 256 false;
    nmi_pending = false;
    timer_hz = 0.0;
    sent = 0;
  }

let check_vector vector =
  if vector < 0 || vector > 255 then invalid_arg "Apic: bad vector"

let raise_irr t ~vector =
  check_vector vector;
  t.irr.(vector) <- true

(* Highest raised vector at or below [v], or -1.  A module-level loop
   over an int result, so acknowledging an interrupt allocates nothing. *)
let rec highest_raised irr v =
  if v < 0 || irr.(v) then v else highest_raised irr (v - 1)

let ack_highest t =
  let v = highest_raised t.irr 255 in
  if v >= 0 then t.irr.(v) <- false;
  v

let pending_vectors t =
  let acc = ref [] in
  for v = 255 downto 0 do
    if t.irr.(v) then acc := v :: !acc
  done;
  !acc

let pir_post t ~vector =
  check_vector vector;
  t.pir.(vector) <- true

let pir_sync t =
  for v = 0 to 255 do
    if t.pir.(v) then begin
      t.pir.(v) <- false;
      t.irr.(v) <- true
    end
  done

let pir_outstanding t = Array.exists Fun.id t.pir

let raise_nmi t = t.nmi_pending <- true

let take_nmi t =
  let was = t.nmi_pending in
  t.nmi_pending <- false;
  was

let set_timer_hz t hz =
  if hz < 0.0 then invalid_arg "Apic.set_timer_hz";
  t.timer_hz <- hz

let timer_hz t = t.timer_hz
let ipis_sent t = t.sent
let note_ipi_sent t = t.sent <- t.sent + 1

let pp_icr ppf { dest; vector; kind } =
  let kind_s =
    match kind with
    | Fixed -> "fixed"
    | Nmi -> "nmi"
    | Init -> "init"
    | Startup -> "startup"
  in
  Format.fprintf ppf "ICR{dest=%d vec=%d %s}" dest vector kind_s
