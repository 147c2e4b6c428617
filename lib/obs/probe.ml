(* The probe bus.  [on] is read unlocked on every site; [count] and
   [on] are only ever written together under [lock], so a domain that
   has armed (and not yet disarmed) always reads [on] = true: any
   write after its own arm is made by an arm or disarm that saw its
   count. *)

let on = ref false
let lock = Mutex.create ()
let count = ref 0

let arm () =
  Mutex.protect lock (fun () ->
      incr count;
      on := true)

let disarm () =
  Mutex.protect lock (fun () ->
      if !count > 0 then decr count;
      on := !count > 0)

let armed () = Mutex.protect lock (fun () -> !count)

type ('a, 'b) point = { mutable subs : ('a -> 'b -> unit) array }

let point () = { subs = [||] }

let subscribe p f =
  Mutex.protect lock (fun () -> p.subs <- Array.append p.subs [| f |])

(* warm-begin: dispatch is a loop over the closure array. *)
let fire p a b =
  let subs = p.subs in
  for i = 0 to Array.length subs - 1 do
    (Array.unsafe_get subs i) a b
  done
(* warm-end *)
