(* The class engine's answers are certified without a second solver.  A
   reference iteration that runs the engine's own map moves with any bug
   in that map, and Newton's accept-only-contracting-steps guard, with its
   damped fallback, lands a broken step on the right point anyway, only
   later.  So each answer is checked two ways, neither of which reuses the
   engine's arithmetic: eqs. 2–3 re-evaluated per node must reproduce its
   τ and p (the defect), and a re-solve from the answer scaled by 1.001
   must converge at Newton's quadratic rate, 1e-3 to round-off in three
   iterations.  A wrong Jacobian sign, a bad Sherman–Morrison denominator
   or a missing eligibility product-rule term leaves accepted steps that
   still contract, only linearly (the last one without a single
   fallback), so a fallback count would not show them. *)

let defect_tolerance = 1e-12

let rate_budget = 4

(* p_i = 1 − Π_{j≠i}(1 − τ_j), computed with prefix/suffix products so a
   node with τ_j = 1 (window 1, always transmitting) does not force a
   division by zero. *)
let collision_probabilities taus =
  let n = Array.length taus in
  let prefix = Array.make (n + 1) 1. in
  let suffix = Array.make (n + 1) 1. in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) *. (1. -. taus.(i))
  done;
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) *. (1. -. taus.(i))
  done;
  Array.init n (fun i ->
      Prelude.Util.clamp ~lo:0. ~hi:1. (1. -. (prefix.(i) *. suffix.(i + 1))))

type certificate = { defect : float; resolve_iterations : int; margin : float }

(* Worst |φ_i(p̂_i) − τ_i| and |p̂_i − p_i| over the nodes, where p̂ is
   eq. 3 at the answer's per-node τ; NaN-propagating, so a non-finite
   answer fails. *)
let defect (params : Dcf.Params.t) classes (sol : Dcf.Solver.class_solution)
    =
  let nodes =
    List.concat
      (List.map2
         (fun (s, k) (tau, p) -> List.init k (fun _ -> (s, tau, p)))
         classes sol.class_pairs)
    |> Array.of_list
  in
  let p_hat =
    collision_probabilities (Array.map (fun (_, tau, _) -> tau) nodes)
  in
  let worst = ref 0. in
  let note d = if not (Float.abs d <= !worst) then worst := Float.abs d in
  Array.iteri
    (fun i ((s : Dcf.Strategy_space.t), tau, p) ->
      let q = p_hat.(i) in
      let phi =
        Dcf.Bianchi.tau_of_p ~w:s.cw ~m:params.max_backoff_stage q
        *. ((1. -. q) ** float_of_int s.aifs)
      in
      note (phi -. tau);
      note (q -. p))
    nodes;
  !worst

let certify params classes (sol : Dcf.Solver.class_solution) =
  let defect = defect params classes sol in
  let hints =
    List.map2 (fun (s, _) (tau, _) -> (s, tau)) classes sol.class_pairs
  in
  let tau_hint s =
    match
      List.find_opt (fun (s', _) -> Dcf.Strategy_space.equal s s') hints
    with
    | Some (_, tau) when tau > 0. && tau < 1. -> Some (tau *. 1.001)
    | _ -> None
  in
  let resolved = Dcf.Solver.solve_strategy_classes ~tau_hint params classes in
  (* A class with τ·1.001 ≥ 1 (only a window of 1 gets there) cannot take
     the perturbation: the engine drops the hint and starts it from
     2/(W+1) = 1, where it refuses every Newton step by design.  Such an
     answer is judged on its defect alone. *)
  let boundary =
    List.exists (fun (tau, _) -> tau *. 1.001 >= 1.) sol.class_pairs
  in
  let margin =
    if not (sol.converged && resolved.converged) then infinity
    else if boundary then defect /. defect_tolerance
    else
      Float.max
        (defect /. defect_tolerance)
        (float_of_int resolved.iterations /. float_of_int rate_budget)
  in
  { defect; resolve_iterations = resolved.iterations; margin }

(* Class-reduce an equivalence-grid profile the same way solve_profile
   does: distinct windows sorted ascending. *)
let classes_of_profile profile =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun w ->
      Hashtbl.replace tbl w
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl w)))
    profile;
  Hashtbl.fold (fun w k acc -> (w, k) :: acc) tbl [] |> List.sort compare

let strategy ~cw ~aifs ~txop ~rate =
  { Dcf.Strategy_space.cw; aifs; txop_frames = txop; rate }

(* Multi-knob strategy-class problems: AIFS asymmetry (the eligibility
   term of the Jacobian), TXOP/rate knobs (inert in the fixed point but
   part of the class identity), small windows (strong coupling, where a
   naive undamped Newton would overshoot), and a wide 20-class ladder
   matching the perf kernel's shape. *)
let strategy_problems =
  [
    ( "strategy.aifs_pair",
      [ (strategy ~cw:32 ~aifs:0 ~txop:1 ~rate:1., 3);
        (strategy ~cw:32 ~aifs:2 ~txop:1 ~rate:1., 3) ] );
    ( "strategy.aifs_txop_mix",
      [ (strategy ~cw:16 ~aifs:1 ~txop:3 ~rate:1., 2);
        (strategy ~cw:64 ~aifs:0 ~txop:1 ~rate:2., 5);
        (strategy ~cw:128 ~aifs:3 ~txop:2 ~rate:0.5, 4) ] );
    ( "strategy.small_windows",
      [ (strategy ~cw:2 ~aifs:1 ~txop:1 ~rate:1., 2);
        (strategy ~cw:4 ~aifs:0 ~txop:1 ~rate:1., 3) ] );
    ( "strategy.ladder20",
      List.init 20 (fun i ->
          (strategy ~cw:(64 + (8 * i)) ~aifs:(i mod 3) ~txop:1 ~rate:1., 1))
    );
  ]

(* Heterogeneous CW classes: the newton_cold_n50 ladder (W 2..51), an
   always-eager W = 1 class beside others, a stage count of 0 and of 7,
   and five RTS/CTS classes. *)
let cw_problems =
  let with_stage m = { Dcf.Params.default with max_backoff_stage = m } in
  [
    ("cw.ladder50", Dcf.Params.default, List.init 50 (fun i -> (2 + i, 1)));
    ("cw.w1_mix", Dcf.Params.default, [ (1, 1); (8, 2); (32, 3); (256, 4) ]);
    ("cw.m0_mix", with_stage 0, [ (4, 2); (16, 3); (64, 5); (1024, 1) ]);
    ("cw.m7_mix", with_stage 7, [ (2, 1); (16, 3); (64, 5); (1024, 2) ]);
    ( "cw.rts5",
      Dcf.Params.rts_cts,
      [ (8, 1); (16, 2); (32, 3); (64, 4); (128, 5) ] );
  ]

let check ?telemetry ~id params classes solve =
  let id = "solver_core." ^ id in
  let check =
    match
      let sol = solve () in
      (sol, certify params classes sol)
    with
    | (sol : Dcf.Solver.class_solution), c ->
        Check.v ~id ~group:"solver_core" ~margin:c.margin
          ~detail:
            (Printf.sprintf
               "defect %.1e (<=%.0e), %d iters from the answer x1.001 \
                (<=%d), %d cold, %d classes"
               c.defect defect_tolerance c.resolve_iterations rate_budget
               sol.iterations (List.length classes))
          ()
    | exception exn ->
        Check.v ~id ~group:"solver_core" ~margin:infinity
          ~detail:("raised: " ^ Printexc.to_string exn)
          ()
  in
  Check.emit ?telemetry check;
  check

let cw_check ?telemetry ~id params classes =
  check ?telemetry ~id params
    (List.map (fun (w, k) -> (Dcf.Strategy_space.of_cw w, k)) classes)
    (fun () -> Dcf.Solver.solve_classes params classes)

let checks ?telemetry ~tier () =
  if not (Check.runs_in Check.Fast ~at:tier) then []
  else
    List.map
      (fun (point : Equivalence.point) ->
        cw_check ?telemetry ~id:("grid." ^ point.id) point.params
          (classes_of_profile point.profile))
      (Equivalence.points ~tier:Check.Full)
    @ List.map
        (fun (id, classes) ->
          let params = Dcf.Params.default in
          check ?telemetry ~id params classes (fun () ->
              Dcf.Solver.solve_strategy_classes params classes))
        strategy_problems
    @ List.map
        (fun (id, params, classes) -> cw_check ?telemetry ~id params classes)
        cw_problems
