(** HPCG 3.1-style conjugate gradient benchmark.

    A real preconditioned CG solve on the 27-point Laplacian stencil:
    the arithmetic runs (matrix-free) on a reduced grid so residuals
    and convergence are checkable, while costs are charged for the
    paper's nominal problem (104^3 rows, ~360 MB of matrix data).
    The cost profile per iteration mixes:

    - streaming sweeps over the matrix values (SpMV, SYMGS),
    - dependency-ordered gathers in the symmetric Gauss-Seidel
      smoother that defeat the prefetcher and walk pages in effectively
      random order (this is where the 2M-TLB reach is exceeded and the
      nested walk shows up), and
    - vector streams and dot-product reductions with a barrier each.

    Fig. 7's finding: a small, roughly configuration-independent
    overhead, at worst ~1.4%. *)

open Covirt_kitten

type result = {
  gflops : float;
  iterations : int;
  final_residual : float;
  converged : bool;
}

val run :
  Kitten.context list ->
  ?nominal_dim:int ->
  ?real_dim:int ->
  ?iterations:int ->
  unit ->
  (result, string) Stdlib.result
(** [nominal_dim] defaults to 104 (the paper's "104 104 104" local
    grid).  [real_dim] (default 20) sizes the grid the arithmetic actually
    runs on; [iterations] defaults to 50 CG steps.  A CG iteration of
    that arithmetic allocates nothing: the V-cycle's work grids are made
    once per solve. *)
