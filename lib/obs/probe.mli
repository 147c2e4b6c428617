(** The probe bus: typed observation points that the layers below
    fire into and that replay-side subscribers (the recorder, the
    coverage collector) listen on.

    A {!point} is created once, in the module that owns the site, and
    fired there under the single guard:
    {[
      let walk = Probe.point ()
      ...
      if !Probe.on then Probe.fire walk 2 ()
    ]}
    Subscribers attach with {!subscribe} at module initialisation and
    bracket the work they observe with {!arm}/{!disarm}.  Points with
    one payload use [unit] for the second.

    Contract, kept by every site and every subscriber:
    - {b one branch when disarmed}: a site tests [!on] and nothing
      else, so a run that arms nothing pays a single predictable branch
      per site (enforced by covirt-lint's [tap-zero-cost]);
    - {b no cycles, no randomness}: a subscriber never charges
      simulated cycles or draws from an RNG, so every golden transcript
      is byte-identical with any set of subscribers armed;
    - {b no allocation in dispatch}: {!fire} walks a closure array, so
      a subscriber that allocates nothing keeps an armed warm path at
      zero minor words.

    Domains: the subscriber lists and the arming count are shared;
    what a subscriber collects is its own (Domain-local) business, so
    a point firing in a domain that never armed is ignored by the
    subscriber's own check. *)

val on : bool ref
(** True while any domain has any subscriber armed.  The only flag a
    site tests; never set it directly. *)

val arm : unit -> unit
(** Count one more armed subscriber and raise {!on}.  Count and flag
    move together under one lock, so no interleaving of {!arm} and
    {!disarm} across domains can leave {!on} false while something is
    armed.  Cold. *)

val disarm : unit -> unit
(** Undo one {!arm}; {!on} drops when the count reaches zero.  A
    disarm with nothing armed is ignored. *)

val armed : unit -> int
(** How many {!arm}s are outstanding, across all domains. *)

type ('a, 'b) point
(** An observation point carrying an ['a] and a ['b] per firing. *)

val point : unit -> ('a, 'b) point
(** A point with no subscribers. *)

val subscribe : ('a, 'b) point -> ('a -> 'b -> unit) -> unit
(** Add a subscriber, called on every later {!fire} after those
    subscribed before it.  Cold: call at module initialisation. *)

val fire : ('a, 'b) point -> 'a -> 'b -> unit
(** Call every subscriber in subscription order.  Allocates nothing
    itself.  Sites call it only under [if !on]. *)
