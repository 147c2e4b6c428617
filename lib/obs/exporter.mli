(** Trace-event buffer and Chrome [trace_event] / JSONL export.

    The exporter collects the spans and instants emitted by {!Span} into
    a bounded in-memory buffer and serialises them in the Chrome
    [trace_event] format — the [{"traceEvents": [...]}] JSON that
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto} load
    directly — or as one-event-per-line JSONL for streaming pipelines.

    Timestamps arrive as simulated TSC cycles and are converted to
    microseconds at serialisation time at a fixed 1700 cycles per
    microsecond (a 1.7 GHz clock).
    Enclave ids map to Chrome [pid]s and CPU ids to [tid]s, so Perfetto
    renders one track group per enclave with one track per core.

    Like {!Metrics}, recording is gated by a single [!on] branch at each
    emission site, and a full buffer drops new events (counting them in
    {!dropped}) rather than growing without bound.  The buffer is
    per-domain (Domain-local storage): a fleet shard traces into its
    own ring, and {!events}/{!to_chrome_json} read the calling domain's
    ring only.  The [on]/{!set_capacity}
    configuration is shared — set it before spawning a fleet. *)

val on : bool ref
(** Master switch for span emission; {!Span} checks it so instrumented
    code can emit unconditionally.  Prefer {!enable}/{!disable}. *)

val enable : unit -> unit
(** Turn span collection on. *)

val disable : unit -> unit
(** Turn span collection off.  Buffered events are kept. *)

val enabled : unit -> bool
(** [enabled ()] is [!on]. *)

val set_capacity : int -> unit
(** Resize the event buffer (default [65536] events) and clear it. *)

type event = {
  name : string;  (** event label, e.g. the exit-reason name *)
  cat : string;  (** category, e.g. ["vmexit"], ["fault"] *)
  ph : string;  (** Chrome phase: ["X"] complete, ["i"] instant *)
  ts : int;  (** start, in simulated TSC cycles *)
  dur : int;  (** duration in cycles; [0] for instants *)
  pid : int;  (** enclave id ([0] = host) *)
  tid : int;  (** CPU / core id *)
  args : (string * string) list;  (** extra key/value payload *)
}
(** One buffered trace event, timestamps still in cycles. *)

val emit : event -> unit
(** Append an event; drops (and counts) when the buffer is full.  Does
    not check {!on} — {!Span} carries the guard. *)

val events : unit -> event list
(** Buffered events, oldest first. *)

val length : unit -> int
(** Number of buffered events. *)

val dropped : unit -> int
(** Events discarded because the buffer was full. *)

val clear : unit -> unit
(** Empty the buffer and zero {!dropped}. *)

val to_chrome_json : unit -> string
(** The buffer as a Chrome [trace_event] JSON document. *)

val write_chrome_json : path:string -> unit
(** Write {!to_chrome_json} to [path] (truncating). *)

val write_jsonl : path:string -> unit
(** Write one JSON event object per line to [path] (truncating). *)
