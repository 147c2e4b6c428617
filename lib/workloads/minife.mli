(** MiniFE 2.0 (Mantevo) — implicit finite-element proxy app.

    Two phases, both real at reduced scale and cost-charged at nominal
    scale (nx=ny=nz=250, per Table I):

    - {b assembly}: build a CSR matrix from hex-element contributions
      (streaming writes over the matrix arrays, element-local flops);
    - {b solve}: unpreconditioned CG.  MiniFE's lexicographic node
      ordering keeps the SpMV's x-vector accesses inside a prefetchable
      band, so — unlike HPCG's dependency-ordered smoother — there is
      almost no TLB-hostile traffic.  That is why Fig. 6 shows no
      noticeable Covirt overhead on MiniFE in any configuration.

    "MiniFE does not require significant amounts of interprocess
    coordination": one reduction barrier per CG iteration, no
    halo-exchange phases. *)

open Covirt_kitten

type result = {
  total_seconds : float;
  assembly_seconds : float;
  solve_gflops : float;
  cg_iterations : int;
  final_residual : float;
}

val run :
  Kitten.context list ->
  ?nominal_dim:int ->
  ?real_dim:int ->
  ?iterations:int ->
  unit ->
  (result, string) Stdlib.result
(** [nominal_dim] defaults to 250. *)
