let complete ?(args = []) ~name ~cat ~pid ~tid ~ts ~dur () =
  if !Exporter.on then
    Exporter.emit
      { Exporter.name; cat; ph = "X"; ts; dur; pid; tid; args }

let instant ?(args = []) ~name ~cat ~pid ~tid ~ts () =
  if !Exporter.on then
    Exporter.emit
      { Exporter.name; cat; ph = "i"; ts; dur = 0; pid; tid; args }
