open Covirt_hw

type t = {
  machine : Machine.t;
  host_cpu : Cpu.t;
  mutable mirrored : Region.Set.t;
  mutable delegations : int;
  mutable faults : int;
}

let create machine ~host_cpu =
  {
    machine;
    host_cpu;
    mirrored = Region.Set.empty;
    delegations = 0;
    faults = 0;
  }

let page_cost t pages =
  Cpu.charge t.host_cpu
    (pages * t.machine.Machine.model.Cost_model.page_list_per_page)

let pages_of region = region.Region.len / Addr.page_size_4k

let mirror t region =
  page_cost t (pages_of region);
  t.mirrored <- Region.Set.add t.mirrored region

let unmirror t region =
  page_cost t (pages_of region / 4 (* teardown is cheaper than setup *));
  t.mirrored <- Region.Set.remove t.mirrored region

let delegate t ~number ~buffer =
  t.delegations <- t.delegations + 1;
  (* entering the proxy costs a host context switch either way *)
  Cpu.charge t.host_cpu 2_000;
  match buffer with
  | Some region
    when not
           (Region.Set.mem_range t.mirrored ~base:region.Region.base
              ~len:region.Region.len) ->
      t.faults <- t.faults + 1;
      -14 (* -EFAULT: the mirror is out of sync with the application *)
  | Some region ->
      (* the proxy touches the replicated buffer *)
      Cpu.charge t.host_cpu
        (max 1 (region.Region.len / t.machine.Machine.model.Cost_model.line_bytes)
        * t.machine.Machine.model.Cost_model.l3_hit);
      ignore number;
      region.Region.len
  | None -> 0

let delegations t = t.delegations
let faults t = t.faults
