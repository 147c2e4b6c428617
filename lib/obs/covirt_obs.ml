module Metrics = Metrics
module Profiler = Profiler
module Span = Span
module Exporter = Exporter

let enable () = Metrics.enable ()

let disable () =
  Metrics.disable ();
  Exporter.disable ()

let enabled () = Metrics.enabled ()

let reset () =
  Metrics.reset ();
  Profiler.reset ();
  Exporter.clear ()

module Vmexit = struct
  let count = Metrics.counter "vmexit.count"
  let cycles = Metrics.histogram "vmexit.cycles"

  let record ~enclave ~cpu ~reason ~t0 ~t1 =
    let dur = t1 - t0 in
    if !Metrics.on then begin
      let label = { Metrics.enclave; cpu; dim = reason } in
      Metrics.add (Metrics.cell count label) 1;
      Metrics.observe (Metrics.cell cycles label) (float_of_int dur);
      Profiler.record ~reason ~cycles:dur
    end;
    if !Exporter.on then
      Span.complete ~name:reason ~cat:"vmexit" ~pid:enclave ~tid:cpu ~ts:t0
        ~dur ()
end
