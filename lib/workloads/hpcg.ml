open Covirt_kitten

type result = {
  gflops : float;
  iterations : int;
  final_residual : float;
  converged : bool;
}

let default_nominal_dim = 104

(* ------------------------------------------------------------------ *)
(* Real arithmetic: matrix-free 27-point stencil on a real_dim^3 grid. *)

module Grid = struct
  type t = {
    n : int;
    data : float array;
    offsets : int array;  (* the 26 neighbours' index deltas, (dz, dy, dx) order *)
  }

  let create n =
    let offsets = Array.make 26 0 and k = ref 0 in
    for dz = -1 to 1 do
      for dy = -1 to 1 do
        for dx = -1 to 1 do
          if dx <> 0 || dy <> 0 || dz <> 0 then begin
            offsets.(!k) <- (dz * n * n) + (dy * n) + dx;
            incr k
          end
        done
      done
    done;
    { n; data = Array.make (n * n * n) 0.0; offsets }

  let idx g x y z = (z * g.n * g.n) + (y * g.n) + x

  (* One row of [spmv] at a boundary point: neighbours are tested
     against the grid. *)
  let boundary_point a out x yy z =
    let n = a.n in
    let acc = ref (26.0 *. a.data.(idx a x yy z)) in
    for dz = -1 to 1 do
      for dy = -1 to 1 do
        for dx = -1 to 1 do
          if dx <> 0 || dy <> 0 || dz <> 0 then begin
            let x' = x + dx and y' = yy + dy and z' = z + dz in
            if x' >= 0 && x' < n && y' >= 0 && y' < n && z' >= 0 && z' < n then
              acc := !acc -. a.data.(idx a x' y' z')
          end
        done
      done
    done;
    out.(idx a x yy z) <- !acc

  let spmv ~a ~y =
    (* y = A*x for the 27-point Laplacian: diag 26, neighbours -1.
       Interior points skip the bounds tests but subtract their
       neighbours in the same (dz, dy, dx) order. *)
    let n = a.n and d = a.data and out = y.data and off = a.offsets in
    for z = 0 to n - 1 do
      for yy = 0 to n - 1 do
        if z > 0 && z < n - 1 && yy > 0 && yy < n - 1 then begin
          boundary_point a out 0 yy z;
          for c = idx a 1 yy z to idx a (n - 2) yy z do
            let acc = ref (26.0 *. d.(c)) in
            for k = 0 to 25 do
              acc := !acc -. d.(c + off.(k))
            done;
            out.(c) <- !acc
          done;
          boundary_point a out (n - 1) yy z
        end
        else
          for x = 0 to n - 1 do
            boundary_point a out x yy z
          done
      done
    done

  let dot a b =
    let acc = ref 0.0 in
    for i = 0 to Array.length a.data - 1 do
      acc := !acc +. (a.data.(i) *. b.data.(i))
    done;
    !acc

  let axpy ~alpha ~x ~y =
    (* y <- y + alpha x *)
    for i = 0 to Array.length x.data - 1 do
      y.data.(i) <- y.data.(i) +. (alpha *. x.data.(i))
    done

  let scale_add ~x ~beta ~p =
    (* p <- x + beta p *)
    for i = 0 to Array.length x.data - 1 do
      p.data.(i) <- x.data.(i) +. (beta *. p.data.(i))
    done

  let copy ~src ~dst = Array.blit src.data 0 dst.data 0 (Array.length src.data)
end

(* ------------------------------------------------------------------ *)
(* Nominal cost profile.                                               *)

(* Bytes per row of the CSR-ish matrix: 27 values (8B) + 27 column
   indices (4B). *)
let matrix_bytes_per_row = 27 * 12

(* Gather ops per row in the SYMGS smoother that walk the matrix in
   dependency order (effectively random at page granularity).  The
   smoother's data dependencies span the whole domain, so these
   gathers wander the full matrix, not the core-local shard — which is
   why HPCG's overhead is consistent across core/zone layouts.  The
   remaining neighbour traffic is prefetch-covered and accounted as
   streaming. *)
let symgs_random_ops_per_row = 2

let flops_per_row_per_iter = 27 * 2 * 4 (* SpMV + 2x SYMGS + vectors *)

let charge_iteration ctxs ~matrices ~symgs_ws ~xvec ~rows =
  let ncores = List.length ctxs in
  let rows_per_core = rows / ncores in
  List.iter2
    (fun ctx matrix ->
      (* SpMV: stream the matrix shard, gather from x. *)
      Exec.stream_pass ctx [ matrix ] ~sharers:ncores;
      Exec.random_ops ctx xvec ~ops:(rows_per_core * 2) ~sharers:ncores;
      (* SYMGS pre+post smooth: two more matrix sweeps plus the
         dependency-ordered gathers. *)
      Exec.stream_pass ctx [ matrix ] ~sharers:ncores;
      Exec.stream_pass ctx [ matrix ] ~sharers:ncores;
      Exec.random_ops ctx symgs_ws
        ~ops:(rows_per_core * symgs_random_ops_per_row)
        ~sharers:ncores;
      (* Vector work: r, p, Ap streams. *)
      Exec.stream_pass ctx [ xvec; xvec; xvec ] ~sharers:ncores;
      Exec.flops ctx (rows_per_core * flops_per_row_per_iter))
    ctxs matrices;
  (* Two dot-product reductions per CG iteration. *)
  Exec.barrier ctxs;
  Exec.barrier ctxs

(* ------------------------------------------------------------------ *)
(* Multigrid preconditioner: HPCG solves with a V-cycle of Jacobi-
   smoothed coarse corrections (HPCG 3.1 uses 3 coarse levels with
   SYMGS; Jacobi keeps the reduced-scale arithmetic simple while
   preserving the convergence structure). *)

module Mg = struct
  (* The V-cycle's work grids, allocated once per solve. *)
  type scratch = {
    tmp : Grid.t;  (* fine-grid A*x *)
    resid : Grid.t;  (* fine-grid residual *)
    ctmp : Grid.t;  (* coarse-grid A*x *)
    rc : Grid.t;  (* restricted residual *)
    zc : Grid.t;  (* coarse correction *)
  }

  let scratch n =
    let h = n / 2 in
    {
      tmp = Grid.create n;
      resid = Grid.create n;
      ctmp = Grid.create h;
      rc = Grid.create h;
      zc = Grid.create h;
    }

  let smooth ~tmp ~b ~x ~sweeps =
    (* weighted Jacobi on the 27-point operator: diag = 26 *)
    let xd = x.Grid.data and bd = b.Grid.data and td = tmp.Grid.data in
    for _ = 1 to sweeps do
      Grid.spmv ~a:x ~y:tmp;
      for i = 0 to Array.length bd - 1 do
        xd.(i) <- xd.(i) +. (0.6 /. 26.0 *. (bd.(i) -. td.(i)))
      done
    done

  let restrict ~fine ~coarse =
    (* injection: every other point *)
    let nf = fine.Grid.n and nc = coarse.Grid.n in
    assert (nc * 2 = nf);
    for z = 0 to nc - 1 do
      for y = 0 to nc - 1 do
        for x = 0 to nc - 1 do
          coarse.Grid.data.(Grid.idx coarse x y z) <-
            fine.Grid.data.(Grid.idx fine (2 * x) (2 * y) (2 * z))
        done
      done
    done

  let prolong ~coarse ~fine =
    (* piecewise-constant interpolation added into the fine grid *)
    let nf = fine.Grid.n and nc = coarse.Grid.n in
    assert (nc * 2 = nf);
    for z = 0 to nf - 1 do
      for y = 0 to nf - 1 do
        for x = 0 to nf - 1 do
          let c =
            coarse.Grid.data.(Grid.idx coarse (Int.min (x / 2) (nc - 1))
                                (Int.min (y / 2) (nc - 1))
                                (Int.min (z / 2) (nc - 1)))
          in
          fine.Grid.data.(Grid.idx fine x y z) <-
            fine.Grid.data.(Grid.idx fine x y z) +. c
        done
      done
    done

  (* One V-cycle applying M^-1 to [r], result in [z]. *)
  let v_cycle ws ~r ~z =
    let n = r.Grid.n in
    Array.fill z.Grid.data 0 (Array.length z.Grid.data) 0.0;
    smooth ~tmp:ws.tmp ~b:r ~x:z ~sweeps:1;
    if n mod 2 = 0 && n >= 8 then begin
      (* coarse correction *)
      let resid = ws.resid.Grid.data and rd = r.Grid.data in
      Grid.spmv ~a:z ~y:ws.resid;
      for i = 0 to Array.length rd - 1 do
        resid.(i) <- rd.(i) -. resid.(i)
      done;
      restrict ~fine:ws.resid ~coarse:ws.rc;
      Array.fill ws.zc.Grid.data 0 (Array.length ws.zc.Grid.data) 0.0;
      smooth ~tmp:ws.ctmp ~b:ws.rc ~x:ws.zc ~sweeps:2;
      prolong ~coarse:ws.zc ~fine:z
    end;
    smooth ~tmp:ws.tmp ~b:r ~x:z ~sweeps:1
end

let run ctxs ?(nominal_dim = default_nominal_dim) ?(real_dim = 20)
    ?(iterations = 50) () =
  match ctxs with
  | [] -> Error "Hpcg.run: no cores"
  | primary :: _ -> (
      let ncores = List.length ctxs in
      let rows = nominal_dim * nominal_dim * nominal_dim in
      let matrix_bytes = rows * matrix_bytes_per_row / ncores in
      let vector_bytes = rows * 8 in
      let alloc ctx bytes = Exec.alloc ctx ~bytes () in
      let rec alloc_matrices acc = function
        | [] -> Ok (List.rev acc)
        | ctx :: rest -> (
            match alloc ctx matrix_bytes with
            | Ok b -> alloc_matrices (b :: acc) rest
            | Error e -> Error e)
      in
      match
        ( alloc_matrices [] ctxs,
          alloc primary vector_bytes,
          alloc primary (rows * matrix_bytes_per_row) )
      with
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
      | Ok matrices, Ok xvec, Ok symgs_ws ->
          (* Real CG on the reduced grid. *)
          let n = real_dim in
          let b = Grid.create n in
          let x = Grid.create n in
          let r = Grid.create n and p = Grid.create n and ap = Grid.create n in
          (* RHS: a delta source in the middle. *)
          b.Grid.data.(Grid.idx b (n / 2) (n / 2) (n / 2)) <- 1.0;
          Grid.copy ~src:b ~dst:r;
          Grid.copy ~src:b ~dst:p;
          (* preconditioned CG: z = M^-1 r via one MG V-cycle *)
          let z = Grid.create n in
          let ws = Mg.scratch n in
          Mg.v_cycle ws ~r ~z;
          Grid.copy ~src:z ~dst:p;
          let rz = ref (Grid.dot r z) in
          let r0 = sqrt (Grid.dot r r) in
          let rr = ref (Grid.dot r r) in
          let start = Covirt_hw.Cpu.rdtsc primary.Kitten.cpu in
          let iters_done = ref 0 in
          (try
             for _ = 1 to iterations do
               (* Cost charging for the nominal problem. *)
               charge_iteration ctxs ~matrices ~symgs_ws ~xvec ~rows;
               (* Real arithmetic. *)
               Grid.spmv ~a:p ~y:ap;
               let pap = Grid.dot p ap in
               if Float.abs pap < 1e-300 then raise Exit;
               let alpha = !rz /. pap in
               Grid.axpy ~alpha ~x:p ~y:x;
               Grid.axpy ~alpha:(-.alpha) ~x:ap ~y:r;
               Mg.v_cycle ws ~r ~z;
               let rz' = Grid.dot r z in
               let beta = rz' /. !rz in
               rz := rz';
               rr := Grid.dot r r;
               Grid.scale_add ~x:z ~beta ~p;
               incr iters_done
             done
           with Exit -> ());
          let dt = Exec.elapsed_seconds primary ~since:start in
          let flops =
            float_of_int !iters_done
            *. float_of_int rows
            *. float_of_int flops_per_row_per_iter
          in
          let final_residual = sqrt !rr /. r0 in
          Ok
            {
              gflops = flops /. dt /. 1e9;
              iterations = !iters_done;
              final_residual;
              converged = final_residual < 0.1;
            })
