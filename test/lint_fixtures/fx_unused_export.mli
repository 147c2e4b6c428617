val dead : int
val used_via_open : int -> int
val used_via_local_open : string
(* lint: allow unused-export — kept on purpose; the count must show it *)
val kept : unit -> unit
module Inner : sig
  val nested_dead : int
end
