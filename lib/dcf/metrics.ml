type t = {
  p_tr : float;
  p_s : float;
  slot_time : float;
  throughput : float;
  per_node_success : float array;
  per_node_throughput : float array;
  idle_time : float;
  success_time : float;
  collision_time : float;
}

let of_taus (params : Params.t) taus =
  let n = Array.length taus in
  if n = 0 then invalid_arg "Metrics.of_taus: empty profile";
  let timing = Timing.of_params params in
  (* Π(1−τ_j) via prefix/suffix products, reused for the per-node terms. *)
  let prefix = Array.make (n + 1) 1. in
  let suffix = Array.make (n + 1) 1. in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) *. (1. -. taus.(i))
  done;
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) *. (1. -. taus.(i))
  done;
  let all_idle = prefix.(n) in
  let p_tr = 1. -. all_idle in
  let per_node_success =
    Array.init n (fun i -> taus.(i) *. prefix.(i) *. suffix.(i + 1))
  in
  let p_any_success = Array.fold_left ( +. ) 0. per_node_success in
  let p_s = if p_tr > 0. then p_any_success /. p_tr else 0. in
  let idle_time = all_idle *. params.sigma in
  let success_time = p_any_success *. timing.ts in
  let collision_time = (p_tr -. p_any_success) *. timing.tc in
  let slot_time = idle_time +. success_time +. collision_time in
  let throughput = p_any_success *. timing.payload /. slot_time in
  let per_node_throughput =
    Array.map (fun ps -> ps *. timing.payload /. slot_time) per_node_success
  in
  {
    p_tr;
    p_s;
    slot_time;
    throughput;
    per_node_success;
    per_node_throughput;
    idle_time;
    success_time;
    collision_time;
  }

let idle_fraction t = t.idle_time /. t.slot_time

let collision_fraction t = t.collision_time /. t.slot_time

let success_fraction t = t.success_time /. t.slot_time
