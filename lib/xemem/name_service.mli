(** XEMEM node-local name service.

    XEMEM provides "a global view of shared memory through the use of
    XPMEM segment IDs managed across the entire system by a node-local
    name service".  This is that service: names map to segment ids,
    segment ids map to export records (owner, page frames) and the set
    of current attachers — the bookkeeping reclamation needs. *)

open Covirt_hw

type exporter = Host_export | Enclave_export of int

type segment = private {
  segid : int;
  name : string;
  exporter : exporter;
  pages : Region.t list;
  mutable attachers : int list;
      (** enclave ids currently attached; change it only through
          {!note_attach}/{!note_detach}, which keep {!segids_of} *)
}

type t

val create : unit -> t

val register :
  t -> name:string -> exporter:exporter -> pages:Region.t list ->
  (segment, string) result
(** Fails on duplicate names or empty/misaligned page lists (XEMEM
    shares whole frames). *)

val lookup : t -> name:string -> segment option

val regions_for : t -> enclave:int -> Covirt_hw.Region.Set.t
(** Every frame of every live segment the enclave exported or is
    attached to — the registered-share closure the static verifier
    treats as legitimately cross-owner. *)

val segids_of : t -> enclave:int -> int list
(** The segids of the live segments [enclave] exports or is attached
    to, ascending.  Indexed: O(the enclave's own segments), whatever
    the registry holds — what teardown reads instead of scanning every
    segment. *)

val lookup_segid : t -> segid:int -> segment option
val note_attach : t -> segid:int -> enclave:int -> unit
val note_detach : t -> segid:int -> enclave:int -> unit
val remove : t -> segid:int -> unit
val segments : t -> segment list
