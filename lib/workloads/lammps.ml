open Covirt_kitten

type bench = Lj | Eam | Chain | Chute

type result = {
  loop_seconds : float;
  steps : int;
  atoms : int;
  final_kinetic_energy : float;
  stable : bool;
}

let bench_name = function
  | Lj -> "lj"
  | Eam -> "eam"
  | Chain -> "chain"
  | Chute -> "chute"

let all_benches = [ Lj; Eam; Chain; Chute ]

(* ------------------------------------------------------------------ *)
(* Real MD engine (reduced units).                                     *)

module Md = struct
  (* Per-system work buffers, allocated once in [create] so a force
     evaluation allocates nothing. *)
  type scratch = {
    next : int array;  (* cell-list links, one per atom *)
    mutable heads : int array;  (* cell-list heads, grown on demand *)
    rho : float array;  (* EAM density *)
    partner : int array;  (* EAM partners [j > i] of one atom ... *)
    weight : float array;  (* ... and their density contributions *)
  }

  type atoms = {
    n : int;
    x : float array;
    y : float array;
    z : float array;
    vx : float array;
    vy : float array;
    vz : float array;
    fx : float array;
    fy : float array;
    fz : float array;
    scratch : scratch;
  }

  let create n =
    {
      n;
      x = Array.make n 0.0;
      y = Array.make n 0.0;
      z = Array.make n 0.0;
      vx = Array.make n 0.0;
      vy = Array.make n 0.0;
      vz = Array.make n 0.0;
      fx = Array.make n 0.0;
      fy = Array.make n 0.0;
      fz = Array.make n 0.0;
      scratch =
        {
          next = Array.make n (-1);
          heads = [||];
          rho = Array.make n 0.0;
          partner = Array.make n 0;
          weight = Array.make n 0.0;
        };
    }

  (* Simple-cubic lattice fill inside a cube of side [box].  Row-major
     by default; [serpentine] reverses every other x-row and y-plane, so
     consecutive indices are always lattice neighbours (for chains). *)
  let lattice ?(serpentine = false) atoms ~box ~rng =
    let per_side =
      int_of_float (ceil (float_of_int atoms.n ** (1.0 /. 3.0)))
    in
    let spacing = box /. float_of_int per_side in
    let flip odd i = if serpentine && odd then per_side - 1 - i else i in
    for i = 0 to atoms.n - 1 do
      let row = i / per_side in
      let iz = row / per_side in
      let ix = flip (row land 1 = 1) (i mod per_side) in
      let iy = flip (iz land 1 = 1) (row mod per_side) in
      atoms.x.(i) <- (float_of_int ix +. 0.5) *. spacing;
      atoms.y.(i) <- (float_of_int iy +. 0.5) *. spacing;
      atoms.z.(i) <- (float_of_int iz +. 0.5) *. spacing;
      atoms.vx.(i) <- Covirt_sim.Rng.gaussian rng ~mu:0.0 ~sigma:0.3;
      atoms.vy.(i) <- Covirt_sim.Rng.gaussian rng ~mu:0.0 ~sigma:0.3;
      atoms.vz.(i) <- Covirt_sim.Rng.gaussian rng ~mu:0.0 ~sigma:0.3
    done

  let zero_forces a =
    Array.fill a.fx 0 a.n 0.0;
    Array.fill a.fy 0 a.n 0.0;
    Array.fill a.fz 0 a.n 0.0

  (* Empty [cells] cell lists in the scratch heads, growing them if
     needed. *)
  let reset_heads s cells =
    if Array.length s.heads < cells then s.heads <- Array.make cells (-1)
    else Array.fill s.heads 0 cells (-1)

  (* Cell-list neighbour search with minimum-image periodic boundaries
     in x/y (z stays open for the chute's floor), like the real
     benchmarks: bin atoms into cutoff-sized cells, then only the 27
     neighbouring cells are searched per atom.  Atoms are inserted at
     the head of their cell's list in ascending index order, so every
     list runs in descending index order.  Needs at least 3 cells per
     side: with fewer, the wrapped neighbours [c - 1] and [c + 1] are
     the same cell and its pairs would be counted twice. *)
  let build_cells a ~box ~ncell =
    let cell_size = box /. float_of_int ncell in
    let s = a.scratch in
    reset_heads s (ncell * ncell * ncell);
    let clamp v = (v mod ncell + ncell) mod ncell in
    for i = 0 to a.n - 1 do
      let cx = clamp (int_of_float (a.x.(i) /. cell_size)) in
      let cy = clamp (int_of_float (a.y.(i) /. cell_size)) in
      let cz = clamp (int_of_float (a.z.(i) /. cell_size)) in
      let c = (cz * ncell * ncell) + (cy * ncell) + cx in
      s.next.(i) <- s.heads.(c);
      s.heads.(c) <- i
    done

  (* The Lennard-Jones pair [i < j], minimum image in x/y when
     [box > 0].  Inlined so its float arguments stay unboxed. *)
  let[@inline] lj_pair a i j ~box ~half ~c2 ~s2 ~k24 =
    let dx = a.x.(i) -. a.x.(j) in
    let dy = a.y.(i) -. a.y.(j) in
    let dz = a.z.(i) -. a.z.(j) in
    let dx =
      if box > 0.0 then
        if dx > half then dx -. box else if dx < -.half then dx +. box else dx
      else dx
    in
    let dy =
      if box > 0.0 then
        if dy > half then dy -. box else if dy < -.half then dy +. box else dy
      else dy
    in
    let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
    if r2 < c2 && r2 > 1e-12 then begin
      let sr2 = s2 /. r2 in
      let sr6 = sr2 *. sr2 *. sr2 in
      let f = k24 *. sr6 *. ((2.0 *. sr6) -. 1.0) /. r2 in
      a.fx.(i) <- a.fx.(i) +. (f *. dx);
      a.fy.(i) <- a.fy.(i) +. (f *. dy);
      a.fz.(i) <- a.fz.(i) +. (f *. dz);
      a.fx.(j) <- a.fx.(j) -. (f *. dx);
      a.fy.(j) <- a.fy.(j) -. (f *. dy);
      a.fz.(j) <- a.fz.(j) -. (f *. dz)
    end

  let lj_forces ?(box = 0.0) a ~cutoff ~eps ~sigma =
    zero_forces a;
    let c2 = cutoff *. cutoff in
    let s2 = sigma *. sigma in
    let k24 = 24.0 *. eps in
    let half = box /. 2.0 in
    let nc = if box > 0.0 then int_of_float (box /. cutoff) else 0 in
    if a.n > 64 && nc >= 3 then begin
      build_cells a ~box ~ncell:nc;
      let heads = a.scratch.heads and next = a.scratch.next in
      for cz = 0 to nc - 1 do
        for cy = 0 to nc - 1 do
          for cx = 0 to nc - 1 do
            let i = ref heads.((cz * nc * nc) + (cy * nc) + cx) in
            while !i >= 0 do
              for dz = -1 to 1 do
                let cz' = cz + dz in
                if cz' >= 0 && cz' < nc then
                  for dy = -1 to 1 do
                    let cy' = (cy + dy + nc) mod nc in
                    for dx = -1 to 1 do
                      let cx' = (cx + dx + nc) mod nc in
                      (* only the [j > i] prefix of the descending
                         list can form a new pair *)
                      let j = ref heads.((cz' * nc * nc) + (cy' * nc) + cx') in
                      while !j > !i do
                        lj_pair a !i !j ~box ~half ~c2 ~s2 ~k24;
                        j := next.(!j)
                      done
                    done
                  done
              done;
              i := next.(!i)
            done
          done
        done
      done
    end
    else
      (* small systems and boxes under 3 cutoffs: direct double loop *)
      for i = 0 to a.n - 1 do
        for j = i + 1 to a.n - 1 do
          lj_pair a i j ~box ~half ~c2 ~s2 ~k24
        done
      done

  (* Cell index of coordinate [v] on an open axis from [lo] in cells
     of [size]; out-of-range (or NaN) positions land in an edge cell. *)
  let[@inline] open_cell v ~lo ~size ~nc =
    let c = int_of_float ((v -. lo) /. size) in
    if c < 0 then 0 else if c >= nc then nc - 1 else c

  (* Open-boundary cells per axis for an extent: at least [cutoff] wide
     (with a margin for rounding), at most 32. *)
  let open_cells extent ~cutoff =
    let c = extent /. (cutoff *. (1.0 +. 1e-6)) in
    if c >= 32.0 then 32 else if c >= 1.0 then int_of_float c else 1

  (* EAM-ish embedding: density from pair distances, embedding force
     proportional to d(sqrt rho).  The density has open boundaries (no
     minimum image); the pairs are found with a cell list over the
     atoms' bounding box.  Each atom's partners [j > i] are applied in
     ascending [j], so every [rho.(k)] sums its terms in the order of
     the direct [i < j] double loop. *)
  let eam_embed a ~cutoff =
    let c2 = cutoff *. cutoff in
    let s = a.scratch in
    let rho = s.rho and partner = s.partner and weight = s.weight in
    Array.fill rho 0 a.n 0.0;
    let lx = ref infinity and hx = ref neg_infinity in
    let ly = ref infinity and hy = ref neg_infinity in
    let lz = ref infinity and hz = ref neg_infinity in
    for i = 0 to a.n - 1 do
      if a.x.(i) < !lx then lx := a.x.(i);
      if a.x.(i) > !hx then hx := a.x.(i);
      if a.y.(i) < !ly then ly := a.y.(i);
      if a.y.(i) > !hy then hy := a.y.(i);
      if a.z.(i) < !lz then lz := a.z.(i);
      if a.z.(i) > !hz then hz := a.z.(i)
    done;
    let lx = !lx and ly = !ly and lz = !lz in
    let nx = open_cells (!hx -. lx) ~cutoff in
    let ny = open_cells (!hy -. ly) ~cutoff in
    let nz = open_cells (!hz -. lz) ~cutoff in
    let sx = (!hx -. lx) /. float_of_int nx in
    let sy = (!hy -. ly) /. float_of_int ny in
    let sz = (!hz -. lz) /. float_of_int nz in
    reset_heads s (nx * ny * nz);
    let heads = s.heads and next = s.next in
    for i = 0 to a.n - 1 do
      let c =
        (((open_cell a.z.(i) ~lo:lz ~size:sz ~nc:nz * ny)
         + open_cell a.y.(i) ~lo:ly ~size:sy ~nc:ny)
        * nx)
        + open_cell a.x.(i) ~lo:lx ~size:sx ~nc:nx
      in
      next.(i) <- heads.(c);
      heads.(c) <- i
    done;
    for i = 0 to a.n - 1 do
      let cx = open_cell a.x.(i) ~lo:lx ~size:sx ~nc:nx in
      let cy = open_cell a.y.(i) ~lo:ly ~size:sy ~nc:ny in
      let cz = open_cell a.z.(i) ~lo:lz ~size:sz ~nc:nz in
      let count = ref 0 in
      for cz' = Int.max 0 (cz - 1) to Int.min (nz - 1) (cz + 1) do
        for cy' = Int.max 0 (cy - 1) to Int.min (ny - 1) (cy + 1) do
          for cx' = Int.max 0 (cx - 1) to Int.min (nx - 1) (cx + 1) do
            let j = ref heads.((((cz' * ny) + cy') * nx) + cx') in
            while !j > i do
              let j' = !j in
              let dx = a.x.(i) -. a.x.(j')
              and dy = a.y.(i) -. a.y.(j')
              and dz = a.z.(i) -. a.z.(j') in
              let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
              if r2 < c2 && r2 > 1e-12 then begin
                (* insertion into the ascending partner list *)
                let w = (c2 -. r2) /. c2 in
                let k = ref !count in
                while !k > 0 && partner.(!k - 1) > j' do
                  partner.(!k) <- partner.(!k - 1);
                  weight.(!k) <- weight.(!k - 1);
                  decr k
                done;
                partner.(!k) <- j';
                weight.(!k) <- w;
                incr count
              end;
              j := next.(j')
            done
          done
        done
      done;
      for k = 0 to !count - 1 do
        let j = partner.(k) and w = weight.(k) in
        rho.(i) <- rho.(i) +. w;
        rho.(j) <- rho.(j) +. w
      done
    done;
    (* embedding energy F(rho) = -sqrt(rho): stabilizing cohesion *)
    for i = 0 to a.n - 1 do
      let r = rho.(i) in
      let scale = if r > 1e-9 then -0.5 /. sqrt r else 0.0 in
      a.fx.(i) <- a.fx.(i) *. (1.0 -. (0.05 *. scale));
      a.fy.(i) <- a.fy.(i) *. (1.0 -. (0.05 *. scale));
      a.fz.(i) <- a.fz.(i) *. (1.0 -. (0.05 *. scale))
    done

  (* FENE bonds along consecutive atoms of each chain of length 32. *)
  let chain_forces a =
    let k = 30.0 and r0 = 1.5 in
    let chain_len = 32 in
    for i = 0 to a.n - 2 do
      if (i + 1) mod chain_len <> 0 then begin
        let dx = a.x.(i) -. a.x.(i + 1)
        and dy = a.y.(i) -. a.y.(i + 1)
        and dz = a.z.(i) -. a.z.(i + 1) in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
        let r2 = Float.min r2 (r0 *. r0 *. 0.96) in
        let f = -.k /. (1.0 -. (r2 /. (r0 *. r0))) in
        a.fx.(i) <- a.fx.(i) +. (f *. dx);
        a.fy.(i) <- a.fy.(i) +. (f *. dy);
        a.fz.(i) <- a.fz.(i) +. (f *. dz);
        a.fx.(i + 1) <- a.fx.(i + 1) -. (f *. dx);
        a.fy.(i + 1) <- a.fy.(i + 1) -. (f *. dy);
        a.fz.(i + 1) <- a.fz.(i + 1) -. (f *. dz)
      end
    done

  (* Granular chute: gravity along -z, damped floor contact. *)
  let chute_forces a =
    let g = 1.0 and floor_k = 100.0 and damp = 0.5 in
    for i = 0 to a.n - 1 do
      a.fz.(i) <- a.fz.(i) -. g;
      if a.z.(i) < 0.5 then begin
        a.fz.(i) <- a.fz.(i) +. (floor_k *. (0.5 -. a.z.(i)));
        a.fx.(i) <- a.fx.(i) -. (damp *. a.vx.(i));
        a.fy.(i) <- a.fy.(i) -. (damp *. a.vy.(i));
        a.fz.(i) <- a.fz.(i) -. (damp *. a.vz.(i))
      end
    done

  let integrate a ~dt =
    for i = 0 to a.n - 1 do
      a.vx.(i) <- a.vx.(i) +. (dt *. a.fx.(i));
      a.vy.(i) <- a.vy.(i) +. (dt *. a.fy.(i));
      a.vz.(i) <- a.vz.(i) +. (dt *. a.fz.(i));
      a.x.(i) <- a.x.(i) +. (dt *. a.vx.(i));
      a.y.(i) <- a.y.(i) +. (dt *. a.vy.(i));
      a.z.(i) <- a.z.(i) +. (dt *. a.vz.(i))
    done

  let kinetic_energy a =
    let acc = ref 0.0 in
    for i = 0 to a.n - 1 do
      acc :=
        !acc
        +. (0.5
           *. ((a.vx.(i) *. a.vx.(i))
              +. (a.vy.(i) *. a.vy.(i))
              +. (a.vz.(i) *. a.vz.(i))))
    done;
    !acc
end

(* ------------------------------------------------------------------ *)
(* Nominal cost profiles (per atom per step unless noted).             *)

type profile = {
  neighbor_gathers : int;  (** irregular neighbour-position loads *)
  gather_ws_bytes : int;  (** working set those gathers wander over *)
  pair_flops : int;
  rebuild_every : int;  (** neighbour-list rebuild period (steps) *)
  rebuild_gathers : int;  (** per atom at each rebuild *)
  rebuild_ws_bytes : int;
}

let mib = 1024 * 1024

let profile_of = function
  | Lj ->
      {
        neighbor_gathers = 6;
        gather_ws_bytes = 3 * mib;
        pair_flops = 55 * 8;
        rebuild_every = 20;
        rebuild_gathers = 12;
        rebuild_ws_bytes = 8 * mib;
      }
  | Eam ->
      {
        neighbor_gathers = 10;
        gather_ws_bytes = 6 * mib;
        pair_flops = 90 * 8;
        rebuild_every = 20;
        rebuild_gathers = 12;
        rebuild_ws_bytes = 8 * mib;
      }
  | Chain ->
      {
        neighbor_gathers = 3;
        gather_ws_bytes = 2 * mib;
        pair_flops = 30 * 8;
        rebuild_every = 25;
        rebuild_gathers = 8;
        rebuild_ws_bytes = 6 * mib;
      }
  | Chute ->
      {
        (* a tall sparse domain: the cell structure alone is hundreds
           of MB and the pour makes atoms cross cells constantly *)
        neighbor_gathers = 10;
        gather_ws_bytes = 192 * mib;
        pair_flops = 40 * 8;
        rebuild_every = 4;
        rebuild_gathers = 40;
        rebuild_ws_bytes = 256 * mib;
      }

let run ctxs ~bench ?(nominal_atoms = 32768) ?(real_atoms = 2048)
    ?(steps = 100) () =
  match ctxs with
  | [] -> Error "Lammps.run: no cores"
  | primary :: _ -> (
      let profile = profile_of bench in
      let ncores = List.length ctxs in
      let atoms_per_core = nominal_atoms / ncores in
      match
        ( Exec.alloc primary ~bytes:profile.gather_ws_bytes (),
          Exec.alloc primary ~bytes:profile.rebuild_ws_bytes (),
          Exec.alloc primary ~bytes:(nominal_atoms * 100) () )
      with
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
      | Ok gather_ws, Ok rebuild_ws, Ok atom_arrays ->
          (* Real dynamics at reduced scale. *)
          let rng =
            Covirt_sim.Rng.split primary.Kitten.machine.Covirt_hw.Machine.rng
          in
          let a = Md.create real_atoms in
          let box = float_of_int real_atoms ** (1.0 /. 3.0) *. 1.1 in
          Md.lattice a ~box ~rng ~serpentine:(bench = Chain);
          let dt = 0.002 in
          let real_steps = min steps 25 in
          let start = Covirt_hw.Cpu.rdtsc primary.Kitten.cpu in
          (* a bounded, finite kinetic energy: 10 per atom is ~74x the
             initial 0.135 (three Gaussian velocity components, σ = 0.3) *)
          let sane ke = ke <= 10.0 *. float_of_int real_atoms in
          let stable = ref true in
          for step = 1 to steps do
            (* nominal charges, per core *)
            List.iter
              (fun ctx ->
                Exec.random_ops ctx gather_ws
                  ~ops:(atoms_per_core * profile.neighbor_gathers)
                  ~sharers:ncores;
                Exec.stream_pass ctx [ atom_arrays ] ~sharers:ncores;
                Exec.flops ctx (atoms_per_core * profile.pair_flops);
                if step mod profile.rebuild_every = 0 then
                  Exec.random_ops ctx rebuild_ws
                    ~ops:(atoms_per_core * profile.rebuild_gathers)
                    ~sharers:ncores)
              ctxs;
            (* reverse-communication force exchange each step *)
            Exec.barrier ctxs;
            (* real dynamics *)
            if step <= real_steps then begin
              (match bench with
              | Lj -> Md.lj_forces ~box a ~cutoff:2.5 ~eps:1.0 ~sigma:1.0
              | Eam ->
                  Md.lj_forces ~box a ~cutoff:2.5 ~eps:1.0 ~sigma:1.0;
                  Md.eam_embed a ~cutoff:2.5
              | Chain ->
                  Md.lj_forces ~box a ~cutoff:1.12 ~eps:1.0 ~sigma:1.0;
                  Md.chain_forces a
              | Chute ->
                  Md.lj_forces ~box a ~cutoff:1.12 ~eps:1.0 ~sigma:1.0;
                  Md.chute_forces a);
              Md.integrate a ~dt;
              if not (sane (Md.kinetic_energy a)) then stable := false
            end
          done;
          let loop_seconds = Exec.elapsed_seconds primary ~since:start in
          Ok
            {
              loop_seconds;
              steps;
              atoms = nominal_atoms;
              final_kinetic_energy = Md.kinetic_energy a;
              stable = !stable && sane (Md.kinetic_energy a);
            })
