type counter = { mutable count : int }

let counter () = { count = 0 }

let incr c = c.count <- c.count + 1

let add c k =
  if k < 0 then invalid_arg "Metric.add: counters only go up";
  c.count <- c.count + k

let count c = c.count

type gauge = { mutable value : float }

let gauge () = { value = 0. }

let set g v = g.value <- v

let value g = g.value

type histogram = { stats : Prelude.Stats.t }

let histogram () = { stats = Prelude.Stats.create () }

let observe h x = Prelude.Stats.add h.stats x

let observations h = Prelude.Stats.count h.stats

let mean h = Prelude.Stats.mean h.stats

let stddev h = Prelude.Stats.stddev h.stats

let hmin h = Prelude.Stats.min h.stats

let hmax h = Prelude.Stats.max h.stats

let total h = Prelude.Stats.sum h.stats
