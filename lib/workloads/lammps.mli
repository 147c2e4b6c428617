(** LAMMPS-style molecular dynamics (the four default benchmarks).

    A real MD engine with cell-list neighbour search ({!Md}) runs the
    dynamics at reduced atom counts; per-step costs are
    charged for the nominal benchmark (32k atoms, 100 steps — the
    stock [bench/] inputs).  The four workloads differ exactly where
    the real LAMMPS benchmarks differ:

    - {b lj}: cut Lennard-Jones liquid.  Dense, cache-resident
      neighbour data — negligible protection overhead.
    - {b eam}: embedded-atom metal.  A second force pass (embedding
      gather) with a spline-table working set — still cache-friendly.
    - {b chain}: bead-spring polymer (FENE bonds between consecutive
      beads, laid along a serpentine walk of the lattice).  Cheap bonded
      forces, small working set.
    - {b chute}: granular chute flow.  Atoms pour through a tall
      sparse domain; cell lists churn and neighbour rebuilds walk a
      working set far beyond TLB reach every few steps.  Fig. 8:
      "Chute shows the most sensitivity to the protections being
      enabled, with the native and no-feature configurations
      performing the best." *)

open Covirt_kitten

type bench = Lj | Eam | Chain | Chute

type result = {
  loop_seconds : float;  (** the "loop time" LAMMPS reports; lower is better *)
  steps : int;
  atoms : int;  (** nominal *)
  final_kinetic_energy : float;  (** real-dynamics sanity value *)
  stable : bool;
      (** the real dynamics kept a finite kinetic energy of at most 10
          per atom (reduced units; it starts near 0.135) at every step:
          no NaN and no blow-up *)
}

val bench_name : bench -> string
val all_benches : bench list

(** The real-dynamics kernels: molecular dynamics in reduced units
    (σ = ε = m = 1).  They exist to sanity-check the physics of the
    reduced-scale run; the cost of the nominal benchmark is charged
    separately by {!run}.

    A force evaluation allocates nothing: cell lists, the EAM density
    and its partner buffer live in per-system scratch made by
    {!Md.create}.  The kernels fix their pair sets, visiting order and
    floating-point operations, so a result is reproducible bit for bit
    (the tests pin [final_kinetic_energy]). *)
module Md : sig
  type scratch

  type atoms = private {
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

  val create : int -> atoms
  (** [n] atoms at the origin, at rest. *)

  val lattice :
    ?serpentine:bool -> atoms -> box:float -> rng:Covirt_sim.Rng.t -> unit
  (** Fill a simple-cubic lattice inside a cube of side [box], in index
      order x-rows, then y, then z, with Gaussian velocities (σ = 0.3).
      [serpentine] (default [false]) walks every other x-row and y-plane
      backwards, so consecutive indices are always lattice neighbours:
      the chain benchmark's bonds then all start one spacing long
      (1.075σ at 2048 atoms) instead of spanning a row or plane break
      (up to 18σ, against a FENE r0 of 1.5σ). *)

  val lj_forces :
    ?box:float -> atoms -> cutoff:float -> eps:float -> sigma:float -> unit
  (** Overwrite the forces with the cut Lennard-Jones forces.  With
      [box > 0] the x and y axes are periodic (minimum image) and z is
      open (the chute's floor); [box = 0] (the default) is fully open.
      Pairs are found with a cell list when there are more than 64 atoms
      and at least 3 cells of side [cutoff] per box side, and with the
      direct [i < j] double loop otherwise.  Cell lists run in descending
      atom index and each is walked only while [j > i], so every pair is
      visited exactly once, in a fixed order. *)

end

val run :
  Kitten.context list ->
  bench:bench ->
  ?nominal_atoms:int ->
  ?real_atoms:int ->
  ?steps:int ->
  unit ->
  (result, string) Stdlib.result
(** Defaults: 32768 nominal atoms, 2048 real atoms, 100 nominal steps
    (the real dynamics integrates [min steps 25] steps). *)
