(** The versioned binary trace format for record/replay.

    A trace is the complete set of {e nondeterministic inputs} a
    simulated run consumed — the scenario parameters (config, seeds,
    trial range), the fault-injector schedule, every fault actually
    applied, plus any synthetic inputs a fuzzer added — interleaved
    with the {e observed} VM-exit stream.  Because the simulator is
    otherwise a pure function of its seeds, a trace fully determines a
    run: the replayer re-executes it and re-captures a bit-identical
    trace ({!Replayer.verify}).

    Wire format (version 1): magic ["CVRT"], varint version, scenario,
    schedule JSON (length-prefixed), dropped-event count, event count,
    then each event.  All small ints are unsigned LEB128 varints; the
    only fixed-width field is the 8-byte little-endian MSR value.
    {!decode} is total — malformed input yields [Error], never an
    exception — so mutated corpus files are themselves safe inputs.

    This module is the {e only} place trace bytes are produced or
    consumed (enforced by covirt-lint): every other layer works with
    the typed {!t}. *)

val magic : string
(** First four bytes of every trace file: ["CVRT"]. *)

val version : int
(** Current format version (1).  {!decode} rejects any other. *)

(** A recorded VM exit's reason, mirroring
    {!Covirt_hw.Vmcs.exit_reason} but self-contained so the format
    cannot drift silently when the simulator's type changes: the
    conversion in {!Recorder} breaks instead. *)
type exit_payload =
  | X_ept of { gpa : int; access : int; not_mapped : bool }
      (** [access]: 0 read, 1 write, 2 exec. *)
  | X_icr of { dest : int; vector : int; kind : int }
      (** [kind]: 0 fixed, 1 NMI, 2 INIT, 3 SIPI. *)
  | X_msr of { msr : int; write : bool; value : int64 }
  | X_io of { port : int; write : bool; value : int }
  | X_cpuid
  | X_xsetbv
  | X_hlt
  | X_intr of { vector : int }
  | X_nmi
  | X_abort of { what : string }

(** A recorded injected fault, mirroring
    {!Covirt_resilience.Fault_injector.fault}. *)
type fault_payload =
  | F_wild of int
  | F_phantom of int
  | F_ipi of { dest : int; vector : int }
  | F_msr
  | F_port
  | F_double
  | F_wedge of { cycles : int }

(** The four corruption classes the sanitizer/verifier oracles must
    detect; a fuzzer plants these as synthetic inputs. *)
type corruption = Cross_owner | Free_map | Stale_grant | Freed_access

type event =
  | Exit of {
      slot : int;  (** trial index the exit occurred in *)
      cpu : int;
      enclave : int;
      tsc : int;
      reason : exit_payload;
    }  (** {e observed}: a VM exit the recorder tapped. *)
  | Fault of { slot : int; fault : fault_payload }
      (** {e input}: a fault the injector applied in this slot. *)
  | Inject_exit of { slot : int; reason : exit_payload }
      (** {e input}: a synthetic exit a fuzzer asks the replayer to
          deliver at the start of this slot. *)
  | Corrupt of { slot : int; cls : corruption }
      (** {e input}: a planted state corruption, applied at the start
          of this slot. *)
  | Xemem_op of { slot : int; attach : bool }
      (** {e input}: an XEMEM attach ([true]) or detach ([false]) the
          attacker performs against the victim's shared segment at the
          start of this slot — the fuzzer interleaves these to stress
          the name service and grant lifecycle. *)
  | Spawn of { slot : int; zone : int }
      (** {e input}: launch an extra enclave in NUMA zone [zone]
          (0 or 1) at the start of this slot, widening the run to a
          multi-enclave scenario.  A no-op when the zone has no free
          core left. *)

(** What kind of run the trace captures — enough to rebuild the run
    from scratch. *)
type scenario =
  | Trial_batch of { config : string; seed : int; trials : int }
      (** [config] is a {!Covirt.Config.of_string} name. *)
  | Soak_shard of { seed : int; lo : int; hi : int; sanitize : bool }
      (** One supervisor-soak shard: trials [lo..hi-1] under
          [shard_seed = seed]. *)

type t = {
  scenario : scenario;
  schedule_json : string;
      (** {!Covirt_resilience.Fault_injector.schedule_to_json} of the
          injector at record time; [""] when no injector was armed. *)
  dropped : int;
      (** Events evicted from the recorder ring before capture: [0]
          means the trace is complete (full bit-identity on replay);
          [> 0] means only the trailing window survived (suffix
          identity). *)
  events : event list;
}

val make :
  ?schedule_json:string -> ?dropped:int -> scenario:scenario -> event list -> t
(** Build a trace ([schedule_json] defaults to [""], [dropped] to
    [0]). *)

val is_input : event -> bool
(** Inputs ([Fault], [Inject_exit], [Corrupt], [Xemem_op], [Spawn])
    are what replay feeds back in; [Exit] events are observations used
    only for verification. *)

val inputs : t -> event list
val observed : t -> event list
val slot_of : event -> int

val corruption_name : corruption -> string
(** ["cross-owner"], ["free-map"], ["stale-grant"], ["freed-access"]
    — matching the covirt-ctl analyze vocabulary. *)

val corruptions : corruption list
(** All four classes, in code order. *)

val encode : t -> string
(** Serialize to the versioned binary format.  Deterministic: equal
    traces encode to equal bytes, so byte comparison of encodings
    {e is} trace equality. *)

val decode : string -> (t, string) result
(** Total inverse of {!encode}.  Rejects bad magic, unknown versions
    and tags, overrunning strings, trailing bytes, out-of-range enum
    codes. *)

val to_file : t -> path:string -> unit
val of_file : path:string -> (t, string) result

val equal : t -> t -> bool
(** Encoding equality — the bit-identity the replay contract is stated
    in. *)

val digest : t -> string
(** Hex digest of the encoding, for corpus filenames and fuzz
    tables. *)

val pp_event : Format.formatter -> event -> unit

val pp_summary : Format.formatter -> t -> unit
(** Multi-line human summary: scenario, size, digest, event counts —
    what [covirt-ctl replay] prints before running. *)
