let check_p_hn p_hn =
  if not (p_hn > 0. && p_hn <= 1.) then
    invalid_arg "Utility: p_hn must be in (0, 1]"

let rate_of_node ?(p_hn = 1.) (params : Params.t) ~slot_time ~tau ~p =
  check_p_hn p_hn;
  tau *. (((1. -. p) *. p_hn *. params.gain) -. params.cost) /. slot_time

(* TXOP amortization: one contention win delivers [frames] frames, so a
   successful access gains k·g and costs k·e while a collision still costs
   a single frame.  E[cost per access] = e·(1 + (1−p)(k−1)); k = 1
   collapses to [rate_of_node]'s per-access economics. *)
let rate_of_strategy ?(p_hn = 1.) (params : Params.t) ~slot_time ~tau ~p
    ~frames =
  check_p_hn p_hn;
  if frames < 1 then invalid_arg "Utility.rate_of_strategy: frames must be >= 1";
  if frames = 1 then rate_of_node ~p_hn params ~slot_time ~tau ~p
  else
    let k = float_of_int frames in
    let gain = (1. -. p) *. p_hn *. k *. params.gain in
    let cost = params.cost *. (1. +. ((1. -. p) *. (k -. 1.))) in
    tau *. (gain -. cost) /. slot_time

let rates ?(p_hn = 1.) (params : Params.t) ~taus ~ps =
  check_p_hn p_hn;
  if Array.length taus <> Array.length ps then
    invalid_arg "Utility.rates: profile length mismatch";
  let metrics = Metrics.of_taus params taus in
  Array.map2
    (fun tau p -> rate_of_node ~p_hn params ~slot_time:metrics.slot_time ~tau ~p)
    taus ps

let stage (params : Params.t) u = u *. params.stage_duration

let discounted (params : Params.t) u =
  u *. params.stage_duration /. (1. -. params.discount)

let discounted_tail (params : Params.t) ~from_stage u =
  (params.discount ** float_of_int from_stage) *. discounted params u

let social_welfare = Array.fold_left ( +. ) 0.

let normalized_global (params : Params.t) rates =
  params.sigma *. social_welfare rates /. params.gain
