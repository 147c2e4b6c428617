(* Growable int sample buffer with exact nearest-rank quantiles. *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }
let length t = t.n
let get t i = t.a.(i)

let push t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let sum t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.a.(i)
  done;
  !s

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort compare s;
  s

(* Nearest rank: the smallest sample with at least [p]% of the samples
   at or below it; 0 when empty. *)
let quantile_sorted s p =
  let n = Array.length s in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
