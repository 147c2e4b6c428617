open Covirt_hw
open Covirt_kitten

type result = {
  copy_mb_s : float;
  scale_mb_s : float;
  add_mb_s : float;
  triad_mb_s : float;
  checksum : float;
}

let default_elems = 10_000_000
let scalar = 3.0

let run ctxs ?(elems = default_elems) ?(iters = 10) () =
  match ctxs with
  | [] -> Error "Stream.run: no cores"
  | primary :: _ -> (
      let ncores = List.length ctxs in
      let bytes = elems * 8 in
      let alloc3 ctx =
        match
          ( Exec.alloc ctx ~bytes:(bytes / ncores) (),
            Exec.alloc ctx ~bytes:(bytes / ncores) (),
            Exec.alloc ctx ~bytes:(bytes / ncores) () )
        with
        | Ok a, Ok b, Ok c -> Ok (a, b, c)
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
      in
      let rec alloc_all acc = function
        | [] -> Ok (List.rev acc)
        | ctx :: rest -> (
            match alloc3 ctx with
            | Ok abc -> alloc_all ((ctx, abc) :: acc) rest
            | Error e -> Error e)
      in
      match alloc_all [] ctxs with
      | Error e -> Error e
      | Ok shards ->
          (* Initialize backing arrays (real arithmetic). *)
          List.iter
            (fun (_, (a, b, c)) ->
              Array.fill a.Exec.data 0 (Array.length a.Exec.data) 1.0;
              Array.fill b.Exec.data 0 (Array.length b.Exec.data) 2.0;
              Array.fill c.Exec.data 0 (Array.length c.Exec.data) 0.0)
            shards;
          let time_kernel ~buffers_per_shard ~compute =
            (* One timed pass: every core sweeps its shard; barrier. *)
            let best = ref infinity in
            for _ = 1 to iters do
              let start = Cpu.rdtsc primary.Kitten.cpu in
              List.iter
                (fun (ctx, abc) ->
                  Exec.stream_pass ctx (buffers_per_shard abc) ~sharers:ncores;
                  compute abc)
                shards;
              Exec.barrier ctxs;
              let dt = Exec.elapsed_seconds primary ~since:start in
              if dt < !best then best := dt
            done;
            let moved =
              float_of_int
                (List.length (buffers_per_shard (List.hd shards |> snd)) * bytes)
            in
            Covirt_sim.Units.bytes_per_sec_to_mb_s (moved /. !best)
          in
          let n_real (a : Exec.buffer) = Array.length a.Exec.data in
          let copy =
            time_kernel
              ~buffers_per_shard:(fun (a, _, c) -> [ a; c ])
              ~compute:(fun (a, _, c) ->
                let n = min (n_real a) (n_real c) in
                Array.blit a.Exec.data 0 c.Exec.data 0 n)
          in
          let scale =
            time_kernel
              ~buffers_per_shard:(fun (_, b, c) -> [ b; c ])
              ~compute:(fun (_, b, c) ->
                let n = min (n_real b) (n_real c) in
                for i = 0 to n - 1 do
                  b.Exec.data.(i) <- scalar *. c.Exec.data.(i)
                done)
          in
          let add =
            time_kernel
              ~buffers_per_shard:(fun (a, b, c) -> [ a; b; c ])
              ~compute:(fun (a, b, c) ->
                let n = min (n_real a) (min (n_real b) (n_real c)) in
                for i = 0 to n - 1 do
                  c.Exec.data.(i) <- a.Exec.data.(i) +. b.Exec.data.(i)
                done)
          in
          let triad =
            time_kernel
              ~buffers_per_shard:(fun (a, b, c) -> [ a; b; c ])
              ~compute:(fun (a, b, c) ->
                let n = min (n_real a) (min (n_real b) (n_real c)) in
                for i = 0 to n - 1 do
                  a.Exec.data.(i) <- b.Exec.data.(i) +. (scalar *. c.Exec.data.(i))
                done)
          in
          let checksum =
            List.fold_left
              (fun acc (_, (a, _, _)) ->
                acc +. Array.fold_left ( +. ) 0.0 a.Exec.data)
              0.0 shards
          in
          Ok
            {
              copy_mb_s = copy;
              scale_mb_s = scale;
              add_mb_s = add;
              triad_mb_s = triad;
              checksum;
            })
