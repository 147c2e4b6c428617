(** Guest page tables (the kernel's own mappings).

    An x86-64 kernel owns a radix page table of exactly the same shape
    as an EPT; only the walk's consumer differs.  We reuse the
    {!Ept} radix structure for the mapping machinery and give it
    kernel-side semantics: a miss here is a {e guest page fault},
    delivered to the kernel itself — not a protection event, and
    invisible to Covirt.  Kitten builds an identity {e direct map} of
    all physical RAM at boot (the LWK policy that makes wild writes
    physically possible natively — the hardware will happily translate
    them; only Covirt's EPT can veto). *)

type t

val create : ?max_page:Addr.page_size -> unit -> t
val map_region : t -> Region.t -> unit
val unmap_region : t -> Region.t -> unit

val translate : t -> Addr.t -> (Addr.page_size, Addr.t) result
(** [Error gva] is a page fault at that address. *)

val maps : t -> Addr.t -> bool
val leaf_counts : t -> int * int * int

val direct_map : total_mem:int -> t
(** The boot-time identity map of [\[0, total_mem)], coalesced into
    the largest possible pages. *)
