(** Kitten processes.

    Kitten provides "a simple, lightweight, and POSIX-like
    environment": processes are spawned with an entry function, run to
    completion under the cooperative scheduler, and leave an exit
    code.  No demand paging, no swapping — memory was allocated
    contiguously up front, as the LWK philosophy dictates. *)

type state = Ready | Running | Exited of int

type t = {
  pid : int;
  name : string;
  entry : Kitten.context -> int;
  mutable state : state;
  mutable cpu_cycles : int;  (** accumulated on-core time *)
}

val create : pid:int -> name:string -> (Kitten.context -> int) -> t
val exit_code : t -> int option
val pp : Format.formatter -> t -> unit
