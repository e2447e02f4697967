let check_gamma gamma =
  if gamma < 0. then invalid_arg "Delay_game: gamma must be >= 0"

let node_delay (params : Dcf.Params.t) (view : Oracle.uniform_view) ~w =
  (Dcf.Delay.of_node ~slot_time:view.slot_time ~tau:view.tau ~p:view.p ~w
     ~m:params.max_backoff_stage)
    .mean_delay

let payoff oracle ~gamma ~n ~w =
  check_gamma gamma;
  let params = Oracle.params oracle in
  let view = Oracle.uniform oracle ~n ~w in
  if view.p >= 1. then -.(view.tau *. params.cost) /. view.slot_time
  else begin
    let delay = node_delay params view ~w in
    view.tau
    *. (((1. -. view.p) *. params.gain /. (1. +. (gamma *. delay)))
       -. params.cost)
    /. view.slot_time
  end

let efficient_cw oracle ~gamma ~n =
  check_gamma gamma;
  if n < 1 then invalid_arg "Delay_game.efficient_cw: need n >= 1";
  if n = 1 then 1
  else
    fst
      (Numerics.Optimize.ternary_int_max
         (fun w -> payoff oracle ~gamma ~n ~w)
         1 (Oracle.params oracle).cw_max)

type tradeoff_point = {
  gamma : float;
  w_star : int;
  delay : float;
  throughput : float;
}

let tradeoff oracle ~n ~gammas =
  let params = Oracle.params oracle in
  Array.map
    (fun gamma ->
      let w_star = efficient_cw oracle ~gamma ~n in
      let view = Oracle.uniform oracle ~n ~w:w_star in
      let delay =
        if view.p >= 1. then infinity else node_delay params view ~w:w_star
      in
      { gamma; w_star; delay; throughput = view.throughput })
    gammas
