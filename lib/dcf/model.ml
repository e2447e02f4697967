type solved = {
  params : Params.t;
  cws : int array;
  taus : float array;
  ps : float array;
  metrics : Metrics.t;
  utilities : float array;
  iterations : int;
  converged : bool;
}

type priced_classes = {
  classes : Solver.profile_classes;
  class_utilities : float array;
  metrics : Metrics.t;
}

let solve_profile_classes ?p_hn ?tau_hint ?max_iter (params : Params.t) cws =
  let classes = Solver.solve_profile_classes ?tau_hint ?max_iter params cws in
  let metrics =
    Metrics.of_taus params (Solver.per_node classes classes.class_taus)
  in
  (* [Utility.rates] with the slot time already in hand, once per class:
     a class's members share (τ, p), so they share the utility bits. *)
  let class_utilities =
    Array.map2
      (fun tau p ->
        Utility.rate_of_node ?p_hn params ~slot_time:metrics.slot_time ~tau ~p)
      classes.class_taus classes.class_ps
  in
  { classes; class_utilities; metrics }

let solve_profile ?p_hn ?tau_hint ?max_iter (params : Params.t) cws =
  let { classes; class_utilities; metrics } =
    solve_profile_classes ?p_hn ?tau_hint ?max_iter params cws
  in
  {
    params;
    cws;
    taus = Solver.per_node classes classes.class_taus;
    ps = Solver.per_node classes classes.class_ps;
    metrics;
    utilities = Solver.per_node classes class_utilities;
    iterations = classes.iterations;
    converged = classes.converged;
  }

type strategy_solved = {
  params : Params.t;
  strategies : Strategy_space.t array;
  taus : float array;
  ps : float array;
  slot_time : float;
  utilities : float array;
  goodputs : float array;
  iterations : int;
  converged : bool;
}

(* The degenerate branch routes through [solve_profile] verbatim so the
   CW-only subspace inherits its bit-identity guarantee structurally; the
   general branch prices per-strategy channel occupancy through the
   heterogeneous slot model. *)
let solve_strategies ?p_hn ?tau_hint ?max_iter (params : Params.t) strategies =
  let n = Array.length strategies in
  if n = 0 then invalid_arg "Model.solve_strategies: empty network";
  Array.iter
    (fun s ->
      match Strategy_space.validate s with
      | Ok () -> ()
      | Error e -> invalid_arg ("Model.solve_strategies: " ^ e))
    strategies;
  if Array.for_all Strategy_space.is_degenerate strategies then begin
    let cws = Array.map (fun (s : Strategy_space.t) -> s.cw) strategies in
    (* Adapt the strategy-keyed hint to the window-keyed profile path. *)
    let tau_hint =
      Option.map (fun hint w -> hint (Strategy_space.of_cw w)) tau_hint
    in
    let s = solve_profile ?p_hn ?tau_hint ?max_iter params cws in
    {
      params;
      strategies;
      taus = s.taus;
      ps = s.ps;
      slot_time = s.metrics.slot_time;
      utilities = s.utilities;
      goodputs = s.metrics.per_node_throughput;
      iterations = s.iterations;
      converged = s.converged;
    }
  end
  else begin
    (* Class-reduce over distinct strategies (canonical order, so any
       permutation of the profile solves the identical class problem). *)
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun s ->
        let key = Strategy_space.to_key s in
        match Hashtbl.find_opt tbl key with
        | Some (s', k) -> Hashtbl.replace tbl key (s', k + 1)
        | None -> Hashtbl.add tbl key (s, 1))
      strategies;
    let class_list =
      Hashtbl.fold (fun _ sk acc -> sk :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Strategy_space.compare a b)
    in
    let solved =
      Solver.solve_strategy_classes ?tau_hint ?max_iter params class_list
    in
    let by_key = Hashtbl.create 8 in
    List.iter2
      (fun (s, _) tp -> Hashtbl.replace by_key (Strategy_space.to_key s) tp)
      class_list solved.class_pairs;
    let pair i = Hashtbl.find by_key (Strategy_space.to_key strategies.(i)) in
    let taus = Array.init n (fun i -> fst (pair i)) in
    let ps = Array.init n (fun i -> snd (pair i)) in
    let base = Timing.of_params params in
    let times = Array.map (Strategy_space.times params ~base) strategies in
    let ts = Array.map (fun (t : Strategy_space.times) -> t.ts) times in
    let tc = Array.map (fun (t : Strategy_space.times) -> t.tc) times in
    (* Goodput credits the whole burst's payload to the one access. *)
    let payload_time =
      Array.init n (fun i ->
          float_of_int strategies.(i).Strategy_space.txop_frames
          *. times.(i).Strategy_space.payload)
    in
    let hetero =
      Hetero.of_profile ~sigma:params.sigma ~taus ~ts ~tc ~payload_time
    in
    let utilities =
      Array.init n (fun i ->
          Utility.rate_of_strategy ?p_hn params ~slot_time:hetero.slot_time
            ~tau:taus.(i) ~p:ps.(i)
            ~frames:strategies.(i).Strategy_space.txop_frames)
    in
    {
      params;
      strategies;
      taus;
      ps;
      slot_time = hetero.slot_time;
      utilities;
      goodputs = hetero.per_node_goodput;
      iterations = solved.iterations;
      converged = solved.converged;
    }
  end

type node_view = {
  tau : float;
  p : float;
  utility : float;
  throughput : float;
  slot_time : float;
}

let homogeneous ?p_hn (params : Params.t) ~n ~w =
  let tau, p = Solver.solve_homogeneous params ~n ~w in
  let metrics = Metrics.of_taus params (Array.make n tau) in
  {
    tau;
    p;
    utility =
      Utility.rate_of_node ?p_hn params ~slot_time:metrics.slot_time ~tau ~p;
    throughput = metrics.per_node_throughput.(0);
    slot_time = metrics.slot_time;
  }

let homogeneous_welfare ?p_hn params ~n ~w =
  float_of_int n *. (homogeneous ?p_hn params ~n ~w).utility
