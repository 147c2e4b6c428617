exception Node_panic of string

exception
  Guest_page_fault of { cpu_id : int; owner : Owner.t; gva : Addr.t }

type t = {
  model : Cost_model.t;
  topology : Numa.t;
  mem : Phys_mem.t;
  cores : Cpu.t array;
  msrs : Msr.t;
  trace : Covirt_sim.Trace.t;
  rng : Covirt_sim.Rng.t;
  corrupted : (int, string) Hashtbl.t;
  mutable wild_reads : int;
  mutable spurious_ipis : int;
  mutable panicked : string option;
  background_streamers_by_zone : int array;
  charge_memo : Charge_memo.t;
  mutable bg_gen : int;
  zone_shares : int array;
}

let create ?(model = Cost_model.default) ?(seed = 42)
    ?(host_reserved_per_zone = 512 * Covirt_sim.Units.mib) ~zones
    ~cores_per_zone ~mem_per_zone () =
  let topology = Numa.create ~zones ~cores_per_zone ~mem_per_zone in
  let rng = Covirt_sim.Rng.create ~seed in
  let cores =
    Array.init (Numa.cores topology) (fun id ->
        (* Each core's TLB once drew a stream of its own; the draw stays
           so the machine's later draws (Selfish, LAMMPS) are unchanged. *)
        ignore (Covirt_sim.Rng.split rng);
        Cpu.create ~id ~zone:(Numa.zone_of_core topology ~core:id) ~model)
  in
  {
    model;
    topology;
    mem = Phys_mem.create ~topology ~host_reserved_per_zone;
    cores;
    msrs = Msr.create ();
    trace = Covirt_sim.Trace.create ();
    rng;
    corrupted = Hashtbl.create 8;
    wild_reads = 0;
    spurious_ipis = 0;
    panicked = None;
    background_streamers_by_zone = Array.make zones 0;
    charge_memo = Charge_memo.create ();
    bg_gen = 0;
    zone_shares = Array.make zones 0;
  }

let cpu t i = t.cores.(i)
let ncores t = Array.length t.cores

let trace t (cpu : Cpu.t) severity fmt =
  Covirt_sim.Trace.recordf t.trace ~tsc:cpu.Cpu.tsc ~cpu:cpu.Cpu.id ~severity
    fmt

let mark_corrupted t ~enclave ~cause =
  if not (Hashtbl.mem t.corrupted enclave) then
    Hashtbl.replace t.corrupted enclave cause

let is_corrupted t ~enclave = Hashtbl.find_opt t.corrupted enclave
let panicked t = t.panicked

let panic t (cpu : Cpu.t) msg =
  t.panicked <- Some msg;
  trace t cpu Covirt_sim.Trace.Error "NODE PANIC: %s" msg;
  raise (Node_panic msg)

(* ------------------------------------------------------------------ *)
(* Failure model: side effects of accesses that reach memory.          *)

let write_effect t (cpu : Cpu.t) addr =
  let victim = Phys_mem.owner_at t.mem addr in
  if not (Owner.equal victim cpu.Cpu.owner) then
    match victim with
    | Owner.Host ->
        panic t cpu
          (Format.asprintf "%a wrote host kernel memory at %a" Owner.pp
             cpu.Cpu.owner Addr.pp addr)
    | Owner.Enclave e ->
        trace t cpu Covirt_sim.Trace.Warn
          "wild write from %s into enclave %d at 0x%x"
          (Owner.to_string cpu.Cpu.owner)
          e addr;
        mark_corrupted t ~enclave:e
          ~cause:
            (Format.asprintf "memory corrupted by %a" Owner.pp cpu.Cpu.owner)
    | Owner.Device d ->
        panic t cpu
          (Format.asprintf "%a misprogrammed device %s via MMIO at %a"
             Owner.pp cpu.Cpu.owner d Addr.pp addr)
    | Owner.Free ->
        trace t cpu Covirt_sim.Trace.Debug
          "write to free memory at 0x%x (latent)" addr

let read_effect t (cpu : Cpu.t) addr =
  let victim = Phys_mem.owner_at t.mem addr in
  if not (Owner.equal victim cpu.Cpu.owner) then t.wild_reads <- t.wild_reads + 1

(* ------------------------------------------------------------------ *)
(* Translation.                                                        *)

(* Page size the guest's own page tables use: Kitten identity-maps its
   contiguous allocations with 2M pages. *)
let native_page_size = Addr.Page_2m

let vapic_active (cpu : Cpu.t) =
  match cpu.Cpu.mode with
  | Cpu.Host_mode -> false
  | Cpu.Guest_mode vmcs -> (
      match vmcs.Vmcs.controls.Vmcs.vapic with
      | Vmcs.Vapic_off -> false
      | Vmcs.Vapic_full | Vmcs.Vapic_piv _ -> true)

let translation_extra_per_miss t (cpu : Cpu.t) ~probe =
  match cpu.Cpu.mode with
  | Cpu.Host_mode -> 0.0
  | Cpu.Guest_mode vmcs ->
      let m = t.model in
      let guest_tax = float_of_int m.Cost_model.guest_tlbmiss_tax in
      let ept_extra =
        match vmcs.Vmcs.controls.Vmcs.ept with
        | None -> 0.0
        | Some ept ->
            let ps =
              match Ept.page_size_at ept probe with
              | Some ps -> ps
              | None -> Ept.max_page ept
            in
            float_of_int (Cost_model.ept_walk_extra m ps)
      in
      let vapic_tax =
        if vapic_active cpu then float_of_int m.Cost_model.vapic_tlbmiss_tax
        else 0.0
      in
      guest_tax +. ept_extra +. vapic_tax

(* Granular translation: exercises the real TLB and EPT.  Returns
   [`Proceed] when the access should reach memory, [`Suppressed] when a
   hypervisor swallowed it. *)
let walk_kernel_pt t (cpu : Cpu.t) addr =
  (* The kernel's own page tables translate first (any execution
     mode); a miss is the kernel's page fault, not a protection
     event. *)
  match cpu.Cpu.guest_pt with
  | None -> native_page_size
  | Some pt -> (
      match Guest_pt.translate pt addr with
      | Ok ps -> ps
      | Error gva ->
          trace t cpu Covirt_sim.Trace.Warn
            "kernel page fault at 0x%x" gva;
          raise
            (Guest_page_fault
               { cpu_id = cpu.Cpu.id; owner = cpu.Cpu.owner; gva }))

(* Fill the VMCS's exit record and deliver the exit. *)
let vm_exit t cpu vmcs reason ~qual ~addr ~value =
  Vmcs.set_exit vmcs reason ~qual ~addr ~value;
  Vmx.deliver_exit ~model:t.model cpu vmcs

(* The EPT-violation qualification's access field. *)
let access_code = function `Read -> 0 | `Write -> 1 | `Exec -> 2

(* warm-begin: the granular warm path is a TLB hit — one probe, one
   charge, no allocation (bench allocation gate; covirt-lint check 6).
   The miss continuation walks and installs (which may allocate: it is
   the cold fill), and a walk failure becomes a VM exit. *)
let translate_granular t (cpu : Cpu.t) addr ~access =
  if Tlb.lookup cpu.Cpu.tlb addr >= 0 then begin
    Cpu.charge cpu t.model.Cost_model.l1_hit;
    `Proceed
  end
  (* warm-end *)
  else begin
    let kernel_ps = walk_kernel_pt t cpu addr in
    ignore kernel_ps;
    match cpu.Cpu.mode with
    | Cpu.Host_mode ->
        Cpu.charge cpu t.model.Cost_model.pt_walk_native;
        Tlb.install cpu.Cpu.tlb addr ~page_size:kernel_ps;
        `Proceed
    | Cpu.Guest_mode vmcs -> (
        Cpu.charge cpu t.model.Cost_model.pt_walk_native;
        match vmcs.Vmcs.controls.Vmcs.ept with
        | None ->
            Cpu.charge cpu t.model.Cost_model.guest_tlbmiss_tax;
            Tlb.install cpu.Cpu.tlb addr ~page_size:kernel_ps;
            `Proceed
        | Some ept ->
            let code = Ept.translate_code ept addr ~access in
            if code >= 0 then begin
              let ps = Addr.page_size_of_code code in
              Cpu.charge cpu (Cost_model.ept_walk_extra t.model ps);
              Tlb.install cpu.Cpu.tlb addr ~page_size:ps;
              `Proceed
            end
            else begin
              (* -2: a translation exists but denies this access *)
              let present = if code = -2 then Vmcs.ept_present else 0 in
              match
                vm_exit t cpu vmcs Vmcs.Ept_violation
                  ~qual:(access_code access lor present) ~addr ~value:0
              with
              | `Resume -> `Proceed
              | `Skip -> `Suppressed
            end)
  end

let data_cost t (cpu : Cpu.t) addr =
  (* Nominal cache cost for a granular (control-path) access. *)
  let local = Numa.addr_in_zone t.topology ~zone:cpu.Cpu.zone addr in
  if local then t.model.Cost_model.l2_hit else t.model.Cost_model.l3_hit

let sanitize_access t (cpu : Cpu.t) ~base ~len ~access =
  if !Sanitize.on then
    Sanitize.access ~mem_uid:(Phys_mem.uid t.mem) ~cpu:cpu.Cpu.id
      ~owner:cpu.Cpu.owner ~base ~len ~access

let load t cpu addr =
  match translate_granular t cpu addr ~access:`Read with
  | `Suppressed -> ()
  | `Proceed ->
      if !Sanitize.on then sanitize_access t cpu ~base:addr ~len:1 ~access:`Read;
      Cpu.charge cpu (data_cost t cpu addr);
      read_effect t cpu addr

let store t cpu addr =
  match translate_granular t cpu addr ~access:`Write with
  | `Suppressed -> ()
  | `Proceed ->
      if !Sanitize.on then
        sanitize_access t cpu ~base:addr ~len:1 ~access:`Write;
      Cpu.charge cpu (data_cost t cpu addr);
      write_effect t cpu addr

let check_range t (cpu : Cpu.t) ~base ~len ~access =
  match cpu.Cpu.mode with
  | Cpu.Host_mode -> ()
  | Cpu.Guest_mode vmcs -> (
      match vmcs.Vmcs.controls.Vmcs.ept with
      | None -> ()
      | Some ept ->
          if not (Ept.covers ept ~base ~len) then begin
            let gpa =
              (* First uncovered address: either the base itself or the
                 end of the covering region containing it. *)
              match Region.Set.find (Ept.regions ept) base with
              | None -> base
              | Some r -> Region.limit r
            in
            match
              vm_exit t cpu vmcs Vmcs.Ept_violation
                ~qual:(access_code access) ~addr:gpa ~value:0
            with
            | `Resume | `Skip -> ()
          end)

(* ------------------------------------------------------------------ *)
(* Bulk cost charging.                                                 *)

let zone_split_into t ~base ~len =
  (* Bytes of [base, base+len) local to each zone, written into the
     machine's preallocated [zone_shares] scratch array (machines are
     shard-local, so one scratch per machine suffices).  Consumers
     derive fractions as [share / len] in ascending zone order —
     exactly the (zone, fraction) list this used to build per call. *)
  let nz = Numa.zones t.topology in
  let mz = Numa.mem_per_zone t.topology in
  let shares = t.zone_shares in
  let lim = base + len in
  let counted = ref 0 in
  for z = 0 to nz - 1 do
    let zlo = z * mz in
    let zhi = zlo + mz in
    let lo = if base > zlo then base else zlo in
    let hi = if lim < zhi then lim else zhi in
    let s = if hi > lo then hi - lo else 0 in
    shares.(z) <- s;
    counted := !counted + s
  done;
  (* MMIO or out-of-range space counts as the last zone. *)
  if !counted < len then shares.(nz - 1) <- shares.(nz - 1) + (len - !counted)

let set_background_streamers t ~zone n =
  if n < 0 then invalid_arg "Machine.set_background_streamers";
  t.background_streamers_by_zone.(zone) <- n;
  t.bg_gen <- t.bg_gen + 1

let contention_factor t ~zone ~sharers =
  let contenders = sharers + t.background_streamers_by_zone.(zone) in
  Float.max 1.0
    (float_of_int contenders
    /. float_of_int t.model.Cost_model.bw_channels_per_zone)

(* warm-begin: the charge fast path mutates the memo's preallocated
   scratch key in place — every field an immediate int, the old mode
   variant unpacked into mode/ept_uid/ept_gen sentinels — then probes.
   A hit allocates nothing (bench allocation gate; covirt-lint check
   6); a miss falls through to the cold compute below. *)
let set_charge_key t (cpu : Cpu.t) ~kind ~base ~len ~sharers ~page_code =
  let k = Charge_memo.scratch t.charge_memo in
  k.Charge_memo.kind <- kind;
  k.Charge_memo.zone <- cpu.Cpu.zone;
  k.Charge_memo.base <- base;
  k.Charge_memo.len <- len;
  k.Charge_memo.sharers <- sharers;
  k.Charge_memo.page <- page_code;
  (match cpu.Cpu.mode with
  | Cpu.Host_mode ->
      k.Charge_memo.mode <- 0;
      k.Charge_memo.ept_uid <- -1;
      k.Charge_memo.ept_gen <- 0
  | Cpu.Guest_mode vmcs -> (
      k.Charge_memo.mode <- (if vapic_active cpu then 2 else 1);
      match vmcs.Vmcs.controls.Vmcs.ept with
      | None ->
          k.Charge_memo.ept_uid <- -1;
          k.Charge_memo.ept_gen <- 0
      | Some e ->
          k.Charge_memo.ept_uid <- Ept.uid e;
          k.Charge_memo.ept_gen <- Ept.generation e));
  k.Charge_memo.bg_gen <- t.bg_gen
(* warm-end *)

(* Cold-path cost formulas.  The zone loops visit zones in ascending
   order and skip empty shares — the same visit order and the same
   float operations as the old (zone, fraction) list folds, so cached
   per-line / per-op charges stay bit-identical (golden gate). *)
let stream_per_line t (cpu : Cpu.t) ~base ~bytes ~sharers ~page_size =
  let m = t.model in
  zone_split_into t ~base ~len:bytes;
  let shares = t.zone_shares in
  let line_cost = ref 0.0 in
  for z = 0 to Numa.zones t.topology - 1 do
    let s = shares.(z) in
    if s > 0 then begin
      let frac = float_of_int s /. float_of_int bytes in
      let local = z = cpu.Cpu.zone in
      line_cost :=
        !line_cost
        +. frac
           *. float_of_int (Cost_model.stream_line m ~local)
           *. contention_factor t ~zone:z ~sharers
    end
  done;
  let miss_rate = Tlb.stream_miss_rate ~model:m ~page_size in
  let trans =
    miss_rate
    *. (float_of_int m.Cost_model.pt_walk_native
       +. translation_extra_per_miss t cpu ~probe:(base + (bytes / 2)))
  in
  !line_cost +. trans

let random_per_op t (cpu : Cpu.t) ~base ~working_set ~sharers ~page_size =
  let m = t.model in
  let cycles, dram_fraction =
    Cost_model.random_profile m ~working_set ~sharers
  in
  zone_split_into t ~base ~len:working_set;
  let shares = t.zone_shares in
  let remote_fraction = ref 0.0 in
  for z = 0 to Numa.zones t.topology - 1 do
    let s = shares.(z) in
    if s > 0 && z <> cpu.Cpu.zone then
      remote_fraction :=
        !remote_fraction +. (float_of_int s /. float_of_int working_set)
  done;
  let numa_penalty =
    dram_fraction *. !remote_fraction
    *. float_of_int (m.Cost_model.dram_remote - m.Cost_model.dram_local)
  in
  let miss_rate = Tlb.bulk_miss_rate ~model:m ~page_size ~working_set in
  let trans =
    miss_rate
    *. (float_of_int m.Cost_model.pt_walk_native
       +. translation_extra_per_miss t cpu ~probe:(base + (working_set / 2)))
  in
  cycles +. numa_penalty +. trans

(* warm-begin: warm charge = key mutation + one probe + one Cpu.charge
   (bench allocation gate; covirt-lint check 6).  The Not_found arm is
   the cold fill. *)
let charge_stream t (cpu : Cpu.t) ~base ~bytes ~sharers ~page_size =
  if bytes <= 0 then invalid_arg "Machine.charge_stream";
  if !Sanitize.on then sanitize_access t cpu ~base ~len:bytes ~access:`Read;
  set_charge_key t cpu ~kind:0 ~base ~len:bytes ~sharers
    ~page_code:(Addr.page_size_code page_size);
  let per_line =
    match Charge_memo.probe t.charge_memo with
    | v -> v
    | exception Not_found ->
        let v = stream_per_line t cpu ~base ~bytes ~sharers ~page_size in
        Charge_memo.commit t.charge_memo v;
        v
  in
  let lines = float_of_int (max 1 (bytes / t.model.Cost_model.line_bytes)) in
  Cpu.charge cpu (int_of_float (lines *. per_line))

let charge_random t (cpu : Cpu.t) ~ops ~base ~working_set ~sharers ~page_size =
  if ops <= 0 || working_set <= 0 then invalid_arg "Machine.charge_random";
  if !Sanitize.on then
    sanitize_access t cpu ~base ~len:working_set ~access:`Read;
  set_charge_key t cpu ~kind:1 ~base ~len:working_set ~sharers
    ~page_code:(Addr.page_size_code page_size);
  let per_op =
    match Charge_memo.probe t.charge_memo with
    | v -> v
    | exception Not_found ->
        let v = random_per_op t cpu ~base ~working_set ~sharers ~page_size in
        Charge_memo.commit t.charge_memo v;
        v
  in
  Cpu.charge cpu (int_of_float (float_of_int ops *. per_op))
(* warm-end *)

let charge_flops t cpu n =
  if n < 0 then invalid_arg "Machine.charge_flops";
  Cpu.charge cpu (int_of_float (float_of_int n *. t.model.Cost_model.flop_cycles))

(* ------------------------------------------------------------------ *)
(* Trapped instructions.                                               *)

let msr_sensitive msr =
  msr = Msr.ia32_smm_monitor_ctl || msr = Msr.ia32_efer
  || msr = Msr.ia32_apic_base

let rdmsr t (cpu : Cpu.t) msr =
  match cpu.Cpu.mode with
  | Cpu.Guest_mode vmcs
    when (match vmcs.Vmcs.controls.Vmcs.msr_bitmap with
         | Some bm -> Msr.Bitmap.is_protected bm msr
         | None -> false) -> (
      vmcs.Vmcs.exit.Vmcs.msr_value <- 0L;
      match vm_exit t cpu vmcs Vmcs.Msr_access ~qual:0 ~addr:msr ~value:0 with
      | `Resume -> Msr.read t.msrs msr
      | `Skip -> 0L)
  | Cpu.Guest_mode _ | Cpu.Host_mode ->
      Cpu.charge cpu 30;
      Msr.read t.msrs msr

let wrmsr t (cpu : Cpu.t) msr value =
  match cpu.Cpu.mode with
  | Cpu.Guest_mode vmcs
    when (match vmcs.Vmcs.controls.Vmcs.msr_bitmap with
         | Some bm -> Msr.Bitmap.is_protected bm msr
         | None -> false) -> (
      vmcs.Vmcs.exit.Vmcs.msr_value <- value;
      match vm_exit t cpu vmcs Vmcs.Msr_access ~qual:1 ~addr:msr ~value:0 with
      | `Resume -> Msr.write t.msrs msr value
      | `Skip -> ())
  | Cpu.Guest_mode _ | Cpu.Host_mode ->
      Cpu.charge cpu 40;
      if msr_sensitive msr && not (Owner.equal cpu.Cpu.owner Owner.Host) then
        panic t cpu
          (Format.asprintf "%a wrote sensitive MSR 0x%x natively" Owner.pp
             cpu.Cpu.owner msr)
      else Msr.write t.msrs msr value

let outb t (cpu : Cpu.t) port value =
  match cpu.Cpu.mode with
  | Cpu.Guest_mode vmcs
    when (match vmcs.Vmcs.controls.Vmcs.io_bitmap with
         | Some bm -> Io_port.Bitmap.is_protected bm port
         | None -> false) -> (
      match vm_exit t cpu vmcs Vmcs.Io_access ~qual:1 ~addr:port ~value with
      | `Resume | `Skip -> ())
  | Cpu.Guest_mode _ | Cpu.Host_mode ->
      Cpu.charge cpu 200;
      if
        port = Io_port.reset_port
        && value land 0x4 <> 0
        && not (Owner.equal cpu.Cpu.owner Owner.Host)
      then
        panic t cpu
          (Format.asprintf "%a hard-reset the node via port 0xCF9" Owner.pp
             cpu.Cpu.owner)

let emulated_instruction t (cpu : Cpu.t) reason =
  (* cpuid/xsetbv exit unconditionally in VMX non-root mode. *)
  match cpu.Cpu.mode with
  | Cpu.Host_mode -> Cpu.charge cpu 100
  | Cpu.Guest_mode vmcs -> (
      match vm_exit t cpu vmcs reason ~qual:0 ~addr:0 ~value:0 with
      | `Resume | `Skip -> ())

let cpuid t cpu = emulated_instruction t cpu Vmcs.Cpuid
let xsetbv t cpu = emulated_instruction t cpu Vmcs.Xsetbv

let hlt t (cpu : Cpu.t) =
  match cpu.Cpu.mode with
  | Cpu.Host_mode -> Cpu.charge cpu 50
  | Cpu.Guest_mode vmcs -> (
      match vm_exit t cpu vmcs Vmcs.Hlt ~qual:0 ~addr:0 ~value:0 with
      | `Resume | `Skip -> ())

let raise_abort t (cpu : Cpu.t) ~what =
  match cpu.Cpu.mode with
  | Cpu.Host_mode ->
      (* A double fault escalates to a triple fault: platform reset. *)
      panic t cpu
        (Format.asprintf "abort (%s) on %a escalated to triple fault" what
           Owner.pp cpu.Cpu.owner)
  | Cpu.Guest_mode vmcs -> (
      vmcs.Vmcs.exit.Vmcs.what <- what;
      match vm_exit t cpu vmcs Vmcs.Abort ~qual:0 ~addr:0 ~value:0 with
      | `Resume | `Skip -> ())

(* ------------------------------------------------------------------ *)
(* Interrupts.                                                         *)

let dispatch_vector t (dest : Cpu.t) =
  ignore t;
  let vector = Apic.ack_highest dest.Cpu.apic in
  if vector >= 0 then
    match dest.Cpu.isr with Some isr -> isr dest vector | None -> ()

let handle_nmi t (dest : Cpu.t) =
  Cpu.charge dest t.model.Cost_model.nmi_roundtrip;
  if Apic.take_nmi dest.Cpu.apic then
    match dest.Cpu.mode with
    | Cpu.Guest_mode vmcs -> (
        (* NMIs unconditionally exit; the Covirt hypervisor's NMI
           handler drains the command queue. *)
        match vm_exit t dest vmcs Vmcs.Nmi_exit ~qual:0 ~addr:0 ~value:0 with
        | `Resume | `Skip -> ())
    | Cpu.Host_mode -> (
        match dest.Cpu.nmi_handler with
        | Some handler -> handler dest
        | None -> ())

let deliver_fixed t (dest : Cpu.t) ~vector ~from_owner =
  let cross = not (Owner.equal dest.Cpu.owner from_owner) in
  if cross && vector < 32 then
    (* An exception-class vector injected into a foreign kernel is a
       kernel crash for the victim. *)
    match dest.Cpu.owner with
    | Owner.Host ->
        t.panicked <- Some "host kernel crashed by errant exception IPI";
        raise (Node_panic "host kernel crashed by errant exception IPI")
    | Owner.Enclave e ->
        mark_corrupted t ~enclave:e
          ~cause:
            (Format.asprintf "errant exception-class IPI (vector %d) from %a"
               vector Owner.pp from_owner)
    | Owner.Device _ | Owner.Free -> ()
  else begin
    if cross then t.spurious_ipis <- t.spurious_ipis + 1;
    match dest.Cpu.mode with
    | Cpu.Host_mode ->
        Apic.raise_irr dest.Cpu.apic ~vector;
        Cpu.charge dest t.model.Cost_model.ipi_recv_native;
        dispatch_vector t dest
    | Cpu.Guest_mode vmcs -> (
        match vmcs.Vmcs.controls.Vmcs.vapic with
        | Vmcs.Vapic_off ->
            Apic.raise_irr dest.Cpu.apic ~vector;
            Cpu.charge dest t.model.Cost_model.ipi_recv_native;
            dispatch_vector t dest
        | Vmcs.Vapic_full -> (
            (* Incoming interrupts force an exit; the hypervisor
               re-injects. *)
            match
              vm_exit t dest vmcs Vmcs.External_interrupt ~qual:0 ~addr:0
                ~value:vector
            with
            | `Resume ->
                Apic.raise_irr dest.Cpu.apic ~vector;
                Cpu.charge dest t.model.Cost_model.vapic_inject;
                dispatch_vector t dest
            | `Skip -> ())
        | Vmcs.Vapic_piv _ ->
            (* Exitless posted delivery. *)
            Apic.pir_post dest.Cpu.apic ~vector;
            Cpu.charge dest t.model.Cost_model.piv_post;
            Apic.pir_sync dest.Cpu.apic;
            dispatch_vector t dest)
  end

let send_ipi t ~from ~dest ~vector ~kind =
  if dest < 0 || dest >= ncores t then invalid_arg "Machine.send_ipi: dest";
  Apic.note_ipi_sent from.Cpu.apic;
  Cpu.charge from t.model.Cost_model.ipi_send_native;
  let allowed =
    match from.Cpu.mode with
    | Cpu.Guest_mode vmcs when vapic_active from -> (
        match
          vm_exit t from vmcs Vmcs.Icr_write ~qual:(Apic.kind_code kind)
            ~addr:dest ~value:vector
        with
        | `Resume -> true
        | `Skip -> false)
    | Cpu.Guest_mode _ | Cpu.Host_mode -> true
  in
  if allowed then begin
    let dest_cpu = t.cores.(dest) in
    match kind with
    | Apic.Nmi ->
        Apic.raise_nmi dest_cpu.Cpu.apic;
        handle_nmi t dest_cpu
    | Apic.Fixed -> deliver_fixed t dest_cpu ~vector ~from_owner:from.Cpu.owner
    | Apic.Init | Apic.Startup ->
        (* INIT/SIPI to a foreign core resets it mid-execution: fatal
           for whoever owns it. *)
        if not (Owner.equal dest_cpu.Cpu.owner from.Cpu.owner) then
          match dest_cpu.Cpu.owner with
          | Owner.Host -> panic t from "errant INIT IPI reset a host core"
          | Owner.Enclave e ->
              mark_corrupted t ~enclave:e ~cause:"errant INIT/SIPI reset"
          | Owner.Device _ | Owner.Free -> ()
  end

let post_host_nmi t ~dest =
  if dest < 0 || dest >= ncores t then invalid_arg "Machine.post_host_nmi";
  let dest_cpu = t.cores.(dest) in
  Apic.raise_nmi dest_cpu.Cpu.apic;
  handle_nmi t dest_cpu

let deliver_external_irq t ~dest ~vector =
  if dest < 0 || dest >= ncores t then
    invalid_arg "Machine.deliver_external_irq";
  let cpu = t.cores.(dest) in
  (match cpu.Cpu.mode with
  | Cpu.Host_mode -> Cpu.charge cpu t.model.Cost_model.ipi_recv_native
  | Cpu.Guest_mode vmcs -> (
      match vmcs.Vmcs.controls.Vmcs.vapic with
      | Vmcs.Vapic_off -> Cpu.charge cpu t.model.Cost_model.ipi_recv_native
      | Vmcs.Vapic_full | Vmcs.Vapic_piv _ -> (
          (* device interrupts exit even under PIV *)
          match
            vm_exit t cpu vmcs Vmcs.External_interrupt ~qual:0 ~addr:0
              ~value:vector
          with
          | `Resume -> Cpu.charge cpu t.model.Cost_model.vapic_inject
          | `Skip -> ())));
  Apic.raise_irr cpu.Cpu.apic ~vector;
  dispatch_vector t cpu

let timer_vector = 0xef

let timer_tick_cost t (cpu : Cpu.t) =
  let m = t.model in
  match cpu.Cpu.mode with
  | Cpu.Host_mode -> m.Cost_model.timer_handler
  | Cpu.Guest_mode vmcs -> (
      match vmcs.Vmcs.controls.Vmcs.vapic with
      | Vmcs.Vapic_off -> m.Cost_model.timer_handler
      | Vmcs.Vapic_full | Vmcs.Vapic_piv _ ->
          (* The local APIC timer is an external interrupt: it exits
             even under PIV (the paper calls this out explicitly). *)
          Vmx.vmexit_cost ~model:m + m.Cost_model.vapic_inject
          + m.Cost_model.timer_handler)

let timer_tick t (cpu : Cpu.t) =
  (match cpu.Cpu.mode with
  | Cpu.Host_mode -> Cpu.charge cpu t.model.Cost_model.timer_handler
  | Cpu.Guest_mode vmcs -> (
      match vmcs.Vmcs.controls.Vmcs.vapic with
      | Vmcs.Vapic_off -> Cpu.charge cpu t.model.Cost_model.timer_handler
      | Vmcs.Vapic_full | Vmcs.Vapic_piv _ -> (
          match
            vm_exit t cpu vmcs Vmcs.External_interrupt ~qual:0 ~addr:0
              ~value:timer_vector
          with
          | `Resume ->
              Cpu.charge cpu
                (t.model.Cost_model.vapic_inject
                + t.model.Cost_model.timer_handler)
          | `Skip -> ())));
  Apic.raise_irr cpu.Cpu.apic ~vector:timer_vector;
  dispatch_vector t cpu
