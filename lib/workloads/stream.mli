(** STREAM 5.10 memory-bandwidth benchmark.

    The four canonical kernels (Copy, Scale, Add, Triad) over three
    arrays, reporting best-of-[iters] MB/s per kernel the way the
    reference STREAM does.  Sequential, prefetch-friendly traffic with
    2M pages: the TLB-miss rate is one miss per 32768 lines, so EPT
    adds effectively nothing — Fig. 5(a)'s result. *)

open Covirt_kitten

type result = {
  copy_mb_s : float;
  scale_mb_s : float;
  add_mb_s : float;
  triad_mb_s : float;
  checksum : float;  (** validates the real arithmetic *)
}

val default_elems : int
(** 10 million doubles per array (3 x 80 MB in simulated memory). *)

val run :
  Kitten.context list -> ?elems:int -> ?iters:int -> unit ->
  (result, string) Stdlib.result
(** Shard the arrays across the given cores; [iters] defaults to 10. *)
