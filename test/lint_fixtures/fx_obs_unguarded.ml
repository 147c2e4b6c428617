let hits = Covirt_obs.Metrics.counter "fx.hits"
let tick n = Covirt_obs.Metrics.add hits n
let mark () = Covirt_obs.Span.instant ~name:"fx" 0
let edge = Covirt_obs.Probe.point ()
let hit i = Covirt_obs.Probe.fire edge i ()
let hit_guarded i = if !Covirt_obs.Probe.on then Covirt_obs.Probe.fire edge i ()
