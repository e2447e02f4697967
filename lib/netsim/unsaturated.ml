type config = {
  params : Dcf.Params.t;
  cws : int array;
  arrival_rates : float array;
  duration : float;
  seed : int;
}

type node_stats = {
  arrivals : int;
  delivered : int;
  backlog : int;
  mean_sojourn : float;
  mean_queue_length : float;
  busy_fraction : float;
  payoff_rate : float;
}

type result = {
  time : float;
  per_node : node_stats array;
  total_delivered : int;
  welfare_rate : float;
}

let run { params; cws; arrival_rates; duration; seed } =
  let r = Slotted.run ~arrival_rates { params; cws; duration; seed } in
  let per_node =
    Array.map
      (fun (s : Slotted.node_stats) ->
        match s.queue with
        | None -> assert false
        | Some q ->
            {
              arrivals = q.arrivals;
              delivered = s.successes;
              backlog = q.backlog;
              mean_sojourn = q.mean_sojourn;
              mean_queue_length = q.mean_queue_length;
              busy_fraction = q.busy_fraction;
              payoff_rate = s.payoff_rate;
            })
      r.per_node
  in
  {
    time = r.time;
    per_node;
    total_delivered =
      Array.fold_left (fun acc (s : node_stats) -> acc + s.delivered) 0 per_node;
    welfare_rate = r.welfare_rate;
  }

let saturation_rate (params : Dcf.Params.t) ~n ~w =
  let tau, p = Dcf.Solver.solve_homogeneous params ~n ~w in
  let metrics = Dcf.Metrics.of_taus params (Array.make n tau) in
  tau *. (1. -. p) /. metrics.slot_time
