open Covirt_hw

type t = {
  enclave_cores : int list;
  mutable allowed : (int * int) list;
  mutable dropped : int;
}

let create ~enclave_cores = { enclave_cores; allowed = []; dropped = 0 }

(* Monomorphic scans: the ICR-exit check runs on every cross-core IPI
   and allocates nothing (no probe tuple, no polymorphic compare). *)
let rec has_core (dest : int) = function
  | [] -> false
  | c :: rest -> c = dest || has_core dest rest

let rec has_grant (vector : int) (dest : int) = function
  | [] -> false
  | (v, d) :: rest -> (v = vector && d = dest) || has_grant vector dest rest

let grant t ~vector ~dest =
  if not (has_grant vector dest t.allowed) then
    t.allowed <- (vector, dest) :: t.allowed

(* [dest] narrows the revocation to one (vector, dest) grant; without
   it every destination for the vector is dropped (full revocation of
   the vector). *)
let revoke ?dest t ~vector =
  t.allowed <-
    List.filter
      (fun (v, d) ->
        v <> vector || match dest with Some d' -> d <> d' | None -> false)
      t.allowed

let clear t = t.allowed <- []

let permits t ~icr =
  let { Apic.dest; vector; kind } = icr in
  let internal = has_core dest t.enclave_cores in
  match kind with
  | Apic.Fixed -> internal || has_grant vector dest t.allowed
  | Apic.Nmi | Apic.Init | Apic.Startup ->
      (* Reset-class and NMI IPIs never leave the enclave. *)
      internal

let note_dropped t = t.dropped <- t.dropped + 1
let dropped t = t.dropped
let grants t = t.allowed
