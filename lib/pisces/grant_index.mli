(** Who holds grants towards a key: a multiset of holder ids per int
    key (a destination core, or a vector).

    Grant tables are per holder — an enclave's [granted_vectors], a
    controller instance's whitelist — so "which holders aim a grant at
    this core?" is otherwise a scan of every live holder.  Teardown
    asks that question for each dying core; the index answers it in
    O(the holders of that key). *)

type t

val create : unit -> t

val add : t -> key:int -> holder:int -> unit
(** Count one more grant of [holder] under [key]. *)

val remove : t -> key:int -> holder:int -> unit
(** Count one grant fewer; a holder whose count reaches 0 is no longer
    listed under [key].  Removing an absent pair is a no-op. *)

val holders : t -> keys:int list -> int list
(** The distinct holders with at least one grant under any of [keys],
    highest id first — the newest-first order of the registries the
    index stands in for. *)
