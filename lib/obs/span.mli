(** Span construction helpers over {!Exporter}.

    A span is a named interval on an (enclave, CPU) track; an instant is
    a zero-length marker.  All emitters check {!Exporter.on} themselves,
    so instrumentation sites may call them unconditionally — though hot
    paths should still guard to avoid building argument lists.

    Timestamps are simulated TSC cycles (the exporter converts to
    microseconds at serialisation time). *)

val complete :
  ?args:(string * string) list ->
  name:string ->
  cat:string ->
  pid:int ->
  tid:int ->
  ts:int ->
  dur:int ->
  unit ->
  unit
(** Emit a closed span in one call — the usual shape for exit dispatch,
    where start and duration are both known when the handler returns. *)

val instant :
  ?args:(string * string) list ->
  name:string ->
  cat:string ->
  pid:int ->
  tid:int ->
  ts:int ->
  unit ->
  unit
(** Emit a zero-length marker ("i" event) — faults, recovery decisions,
    watchdog escalations. *)
