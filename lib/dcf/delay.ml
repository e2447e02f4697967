type t = {
  mean_delay : float;
  attempts_per_packet : float;
  backoff_slots_per_packet : float;
}

let expected_backoff_slots ~w ~m ~p =
  if p < 0. || p > 1. then invalid_arg "Delay: p must be in [0, 1]";
  if w < 1 then invalid_arg "Delay: window must be >= 1";
  if m < 0 then invalid_arg "Delay: max stage must be >= 0";
  if p >= 1. then infinity
  else begin
    let total = ref 0. in
    let pj = ref 1. in
    for j = 0 to m - 1 do
      total := !total +. (!pj *. (float_of_int ((w lsl j) - 1) /. 2.));
      pj := !pj *. p
    done;
    (* The last stage repeats on every further collision. *)
    !total +. (!pj /. (1. -. p) *. (float_of_int ((w lsl m) - 1) /. 2.))
  end

let of_node ~slot_time ~tau ~p ~w ~m =
  if p >= 1. || tau <= 0. then
    invalid_arg "Delay.of_node: node never succeeds (p = 1 or tau = 0)";
  {
    mean_delay = slot_time /. (tau *. (1. -. p));
    attempts_per_packet = 1. /. (1. -. p);
    backoff_slots_per_packet = expected_backoff_slots ~w ~m ~p;
  }

let of_profile (params : Params.t) ~taus ~ps ~cws =
  let n = Array.length taus in
  if Array.length ps <> n || Array.length cws <> n then
    invalid_arg "Delay.of_profile: length mismatch";
  let metrics = Metrics.of_taus params taus in
  Array.init n (fun i ->
      of_node ~slot_time:metrics.slot_time ~tau:taus.(i) ~p:ps.(i) ~w:cws.(i)
        ~m:params.max_backoff_stage)

let drop_probability ~p ~retry_limit =
  if retry_limit < 0 then invalid_arg "Delay: retry_limit must be >= 0";
  if p < 0. || p > 1. then invalid_arg "Delay: p must be in [0, 1]";
  p ** float_of_int (retry_limit + 1)
