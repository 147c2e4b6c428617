open Covirt_hw

type t = {
  enclave_cores : int list;
  mutable allowed : (int * int) list;
  mutable dropped : int;
  mutable index : (Covirt_pisces.Grant_index.t * int) option;
      (* the shared grants-by-destination index and this whitelist's
         holder id in it, until [retire] *)
}

let create ~enclave_cores =
  { enclave_cores; allowed = []; dropped = 0; index = None }

let create_indexed ~index ~holder ~enclave_cores =
  { enclave_cores; allowed = []; dropped = 0; index = Some (index, holder) }

(* Count [grants] in or out of the index ([f] is its add or remove). *)
let reindex t f grants =
  match t.index with
  | None -> ()
  | Some (index, holder) ->
      List.iter (fun (_, dest) -> f index ~key:dest ~holder) grants

let unindex t grants = reindex t Covirt_pisces.Grant_index.remove grants

(* Monomorphic scans: the ICR-exit check runs on every cross-core IPI
   and allocates nothing (no probe tuple, no polymorphic compare). *)
let rec has_core (dest : int) = function
  | [] -> false
  | c :: rest -> c = dest || has_core dest rest

let rec has_grant (vector : int) (dest : int) = function
  | [] -> false
  | (v, d) :: rest -> (v = vector && d = dest) || has_grant vector dest rest

let grant t ~vector ~dest =
  if not (has_grant vector dest t.allowed) then begin
    t.allowed <- (vector, dest) :: t.allowed;
    reindex t Covirt_pisces.Grant_index.add [ (vector, dest) ]
  end

(* [dest] narrows the revocation to one (vector, dest) grant; without
   it every destination for the vector is dropped (full revocation of
   the vector). *)
let revoke ?dest t ~vector =
  let keep, revoked =
    List.partition
      (fun (v, d) ->
        v <> vector || match dest with Some d' -> d <> d' | None -> false)
      t.allowed
  in
  t.allowed <- keep;
  unindex t revoked

let clear t =
  unindex t t.allowed;
  t.allowed <- []

let retire t =
  unindex t t.allowed;
  t.index <- None

let permits t ~dest ~vector ~kind =
  let internal = has_core dest t.enclave_cores in
  match kind with
  | Apic.Fixed -> internal || has_grant vector dest t.allowed
  | Apic.Nmi | Apic.Init | Apic.Startup ->
      (* Reset-class and NMI IPIs never leave the enclave. *)
      internal

let note_dropped t = t.dropped <- t.dropped + 1
let dropped t = t.dropped
let grants t = t.allowed
