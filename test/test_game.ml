(* Tests for the game layer: profiles, Nash-equilibrium analysis (Theorems
   1-2, Lemma 4), strategies (TFT/GTFT/fixed/best-response), the repeated
   game engine and the CW observer. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Prelude.Util.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let default = Dcf.Params.default
let rts_cts = Dcf.Params.rts_cts

(* Keep the search space small so sweeps stay cheap. *)
let small = { default with Dcf.Params.cw_max = 512 }

(* {1 Profile} *)

let test_profile_uniform () =
  let p = Macgame.Profile.uniform ~n:4 ~w:32 in
  Alcotest.(check (array int)) "all equal" [| 32; 32; 32; 32 |]
    (Macgame.Profile.cws p);
  Alcotest.(check bool) "is_uniform" true (Macgame.Profile.is_uniform p);
  Alcotest.(check bool) "is_degenerate" true (Macgame.Profile.is_degenerate p)

let test_profile_with_deviant () =
  let p = Macgame.Profile.with_deviant ~n:3 ~w:64 ~w_dev:8 in
  Alcotest.(check (array int)) "deviant first" [| 8; 64; 64 |]
    (Macgame.Profile.cws p);
  Alcotest.(check bool) "not uniform" false (Macgame.Profile.is_uniform p);
  Alcotest.(check int) "min window" 8 (Macgame.Profile.min_window p)

let test_profile_validate () =
  let of_cws = Macgame.Profile.of_cws in
  Alcotest.(check bool) "valid" true
    (Macgame.Profile.validate ~cw_max:128 (of_cws [| 1; 128 |]) = Ok ());
  Alcotest.(check bool) "rejects 0" true
    (Result.is_error (Macgame.Profile.validate ~cw_max:128 (of_cws [| 0 |])));
  Alcotest.(check bool) "rejects above max" true
    (Result.is_error (Macgame.Profile.validate ~cw_max:128 (of_cws [| 129 |])));
  Alcotest.(check bool) "rejects empty" true
    (Result.is_error (Macgame.Profile.validate ~cw_max:128 (of_cws [||])))

let test_profile_pp () =
  Alcotest.(check string) "uniform rendering" "3x16"
    (Format.asprintf "%a" Macgame.Profile.pp (Macgame.Profile.uniform ~n:3 ~w:16));
  Alcotest.(check string) "list rendering" "[8; 16]"
    (Format.asprintf "%a" Macgame.Profile.pp (Macgame.Profile.of_cws [| 8; 16 |]))

(* {1 Equilibrium} *)

let test_efficient_cw_table2_values () =
  (* Table II band check: the analytic optima for basic access.  Our model
     (m = 5, e = 0.01) gives 79/339/859 against the paper's 76/336/879 —
     within 3 %. *)
  let w5 = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n:5 in
  let w20 = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n:20 in
  let w50 = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n:50 in
  Alcotest.(check bool) "n=5 near 76" true (abs (w5 - 76) <= 5);
  Alcotest.(check bool) "n=20 near 336" true (abs (w20 - 336) <= 12);
  Alcotest.(check bool) "n=50 near 879" true (abs (w50 - 879) <= 35)

let test_efficient_cw_grows_with_n () =
  let w n = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n in
  Alcotest.(check bool) "monotone in n" true (w 5 < w 10 && w 10 < w 20 && w 20 < w 40)

let test_efficient_cw_rts_below_basic () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "rts optimum below basic at n=%d" n)
        true
        (Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic rts_cts) ~n
        < Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n))
    [ 5; 20; 50 ]

let test_efficient_cw_single_player () =
  Alcotest.(check int) "alone, transmit always" 1
    (Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n:1)

let test_efficient_is_global_argmax =
  QCheck.Test.make ~name:"no uniform profile beats the efficient NE" ~count:40
    QCheck.(pair (int_range 2 12) (int_range 1 512))
    (fun (n, w) ->
      let w_star = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic small) ~n in
      Macgame.Oracle.payoff_uniform (Macgame.Oracle.analytic small) ~n ~w
      <= Macgame.Oracle.payoff_uniform (Macgame.Oracle.analytic small) ~n ~w:w_star +. 1e-12)

let test_tau_star_q_properties () =
  (* Lemma 3: Q's root is interior and predicts the e-neglected optimum. *)
  List.iter
    (fun n ->
      let tau = Macgame.Equilibrium.tau_star default ~n in
      Alcotest.(check bool) "interior" true (tau > 0. && tau < 1.);
      let e0 = { default with Dcf.Params.cost = 1e-12 } in
      let w_star = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic e0) ~n in
      let w_from_tau = Macgame.Equilibrium.cw_of_tau (Macgame.Oracle.analytic e0) ~n tau in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: |%d - %d| small" n w_from_tau w_star)
        true
        (abs (w_from_tau - w_star) <= 1 + (w_star / 50)))
    [ 5; 10; 20 ]

let test_tau_star_scaling_law =
  (* Expanding Q(τ) = 0 for small τ gives n·τ* → √(2σ/Tc): the classic
     Bianchi scaling that explains why W_c* grows linearly in n. *)
  QCheck.Test.make ~name:"n*tau* approaches sqrt(2*sigma/Tc)" ~count:20
    QCheck.(int_range 20 200)
    (fun n ->
      let timing = Dcf.Timing.of_params default in
      let predicted = sqrt (2. *. default.Dcf.Params.sigma /. timing.tc) in
      let actual = float_of_int n *. Macgame.Equilibrium.tau_star default ~n in
      Float.abs (actual -. predicted) /. predicted < 0.05)

let test_tau_star_decreases_with_n () =
  let t n = Macgame.Equilibrium.tau_star default ~n in
  Alcotest.(check bool) "more players, rarer transmissions" true
    (t 5 > t 10 && t 10 > t 25 && t 25 > t 50)

let test_cw_of_tau_inverts () =
  List.iter
    (fun w ->
      let tau, _ = Dcf.Solver.solve_homogeneous default ~n:8 ~w in
      Alcotest.(check int)
        (Printf.sprintf "roundtrip W=%d" w)
        w
        (Macgame.Equilibrium.cw_of_tau (Macgame.Oracle.analytic default) ~n:8 tau))
    [ 2; 16; 64; 300; 1024 ]

let test_break_even_no_backoff () =
  (* With m = 0 and tiny windows every attempt collides and pays only the
     cost, so the break-even window is above 1. *)
  let p = { default with Dcf.Params.max_backoff_stage = 0 } in
  let w0 = Macgame.Equilibrium.break_even_cw (Macgame.Oracle.analytic p) ~n:10 in
  Alcotest.(check bool) "positive break-even" true (w0 > 1);
  Alcotest.(check bool) "payoff negative below" true
    (Macgame.Oracle.payoff_uniform (Macgame.Oracle.analytic p) ~n:10 ~w:(w0 - 1) <= 0.);
  Alcotest.(check bool) "payoff positive at w0" true
    (Macgame.Oracle.payoff_uniform (Macgame.Oracle.analytic p) ~n:10 ~w:w0 > 0.)

let test_break_even_with_backoff_is_one () =
  (* Exponential backoff rescues even W = 1 for moderate n under Table I
     parameters (documented deviation from the paper's m-free analysis). *)
  Alcotest.(check int) "W_c0 = 1" 1 (Macgame.Equilibrium.break_even_cw (Macgame.Oracle.analytic default) ~n:5)

let test_ne_set_and_membership () =
  let p = { default with Dcf.Params.max_backoff_stage = 0 } in
  let { Macgame.Equilibrium.w_lo; w_hi } = Macgame.Equilibrium.ne_set (Macgame.Oracle.analytic p) ~n:10 in
  Alcotest.(check bool) "non-empty" true (w_lo <= w_hi);
  Alcotest.(check bool) "lower edge in" true (Macgame.Equilibrium.is_ne (Macgame.Oracle.analytic p) ~n:10 ~w:w_lo);
  Alcotest.(check bool) "upper edge in" true (Macgame.Equilibrium.is_ne (Macgame.Oracle.analytic p) ~n:10 ~w:w_hi);
  Alcotest.(check bool) "below out" false (Macgame.Equilibrium.is_ne (Macgame.Oracle.analytic p) ~n:10 ~w:(w_lo - 1));
  Alcotest.(check bool) "above out" false (Macgame.Equilibrium.is_ne (Macgame.Oracle.analytic p) ~n:10 ~w:(w_hi + 1));
  Alcotest.(check bool) "efficient = upper edge" true
    (Macgame.Equilibrium.is_efficient (Macgame.Oracle.analytic p) ~n:10 ~w:w_hi)

let test_social_welfare_is_n_times_payoff () =
  check_close "welfare" (10. *. Macgame.Oracle.payoff_uniform (Macgame.Oracle.analytic default) ~n:10 ~w:200)
    (Macgame.Equilibrium.social_welfare (Macgame.Oracle.analytic default) ~n:10 ~w:200)

let test_robust_range_brackets_optimum () =
  let w_star = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n:10 in
  let lo, hi = Macgame.Equilibrium.robust_range (Macgame.Oracle.analytic default) ~n:10 ~fraction:0.95 in
  Alcotest.(check bool) "brackets W_c*" true (lo <= w_star && w_star <= hi);
  Alcotest.(check bool) "non-trivial width (robustness)" true (hi - lo > 10);
  let u_star = Macgame.Oracle.payoff_uniform (Macgame.Oracle.analytic default) ~n:10 ~w:w_star in
  Alcotest.(check bool) "edges within fraction" true
    (Macgame.Oracle.payoff_uniform (Macgame.Oracle.analytic default) ~n:10 ~w:lo >= (0.95 *. u_star) -. 1e-9
    && Macgame.Oracle.payoff_uniform (Macgame.Oracle.analytic default) ~n:10 ~w:hi >= (0.95 *. u_star) -. 1e-9);
  Alcotest.(check bool) "left edge tight" true
    (lo = 1 || Macgame.Oracle.payoff_uniform (Macgame.Oracle.analytic default) ~n:10 ~w:(lo - 1) < 0.95 *. u_star)

let test_robust_range_wider_for_rts () =
  (* The paper notes the RTS/CTS curve is flatter: compare relative widths. *)
  let rel params =
    let w_star = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic params) ~n:20 in
    let lo, hi = Macgame.Equilibrium.robust_range (Macgame.Oracle.analytic params) ~n:20 ~fraction:0.9 in
    float_of_int (hi - lo) /. float_of_int w_star
  in
  Alcotest.(check bool) "rts relatively flatter" true (rel rts_cts > rel default)

let test_lemma4_deviation_ordering =
  (* Lemma 4: a unilateral under-cutter gains, an over-shooter loses, and
     conformers suffer from under-cutters. *)
  QCheck.Test.make ~name:"lemma 4 payoff ordering" ~count:40
    QCheck.(pair (int_range 2 10) (int_range 16 256))
    (fun (n, w) ->
      let oracle = Macgame.Oracle.analytic small in
      let uniform = Macgame.Oracle.payoff_uniform oracle ~n ~w in
      let down = Stdlib.max 1 (w / 2) and up = Stdlib.min 512 (w * 2) in
      QCheck.assume (down < w && up > w);
      (* The path Deviation and Equilibrium take: the deviant is node 0,
         node 1 a conformer. *)
      let deviate w_dev =
        Macgame.Oracle.payoffs_profile oracle
          (Macgame.Profile.with_deviant ~n ~w ~w_dev)
      in
      let dv_down = deviate down and dv_up = deviate up in
      dv_down.(0) > uniform -. 1e-12
      && dv_down.(1) < uniform +. 1e-12
      && dv_up.(0) < uniform +. 1e-12
      && dv_up.(1) > uniform -. 1e-12)

let test_unilateral_gain_signs () =
  let w_star = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n:5 in
  Alcotest.(check bool) "undercutting beats conformers" true
    (Macgame.Equilibrium.unilateral_gain (Macgame.Oracle.analytic default) ~n:5 ~w:w_star ~w_dev:(w_star / 2) > 0.);
  Alcotest.(check bool) "overshooting loses" true
    (Macgame.Equilibrium.unilateral_gain (Macgame.Oracle.analytic default) ~n:5 ~w:w_star ~w_dev:(w_star * 2) < 0.)

(* {1 Strategy} *)

let obs cws = [ cws ]

let decide (s : Macgame.Strategy.t) ~me ~my_window ~observed =
  s.decide { Macgame.Strategy.stage = 1; me; my_window; observed }

let test_fixed_strategy () =
  let s = Macgame.Strategy.fixed 42 in
  Alcotest.(check int) "initial" 42 s.initial;
  Alcotest.(check int) "ignores observations" 42
    (decide s ~me:0 ~my_window:42 ~observed:(obs [| 1; 2; 3 |]))

let test_tft_follows_min () =
  let s = Macgame.Strategy.tft ~initial:100 in
  Alcotest.(check int) "matches smallest observed" 7
    (decide s ~me:0 ~my_window:100 ~observed:(obs [| 100; 7; 50 |]));
  Alcotest.(check int) "no observations keeps window" 100
    (decide s ~me:0 ~my_window:100 ~observed:[])

let test_tft_stable_at_uniform () =
  let s = Macgame.Strategy.tft ~initial:64 in
  Alcotest.(check int) "uniform profile is a fixed point" 64
    (decide s ~me:1 ~my_window:64 ~observed:(obs [| 64; 64; 64 |]))

let test_gtft_tolerates_small_noise () =
  let s = Macgame.Strategy.gtft ~initial:100 ~r0:1 ~beta:0.9 in
  (* Observed 95 >= 0.9*100: tolerated, keep current window. *)
  Alcotest.(check int) "tolerates" 100
    (decide s ~me:0 ~my_window:100 ~observed:(obs [| 100; 95 |]))

let test_gtft_punishes_real_cheating () =
  let s = Macgame.Strategy.gtft ~initial:100 ~r0:1 ~beta:0.9 in
  Alcotest.(check int) "punishes" 50
    (decide s ~me:0 ~my_window:100 ~observed:(obs [| 100; 50 |]))

let test_gtft_averages_over_r0 () =
  let s = Macgame.Strategy.gtft ~initial:100 ~r0:2 ~beta:0.9 in
  (* One stage at 60 averaged with a clean one gives 80 < 90: punish with
     the min of the most recent stage. *)
  let observed = [ [| 100; 100 |]; [| 100; 60 |] ] in
  Alcotest.(check int) "average triggers punishment" 100
    (decide s ~me:0 ~my_window:100 ~observed);
  (* With r0 = 1 only the clean most-recent stage counts: tolerate. *)
  let s1 = Macgame.Strategy.gtft ~initial:100 ~r0:1 ~beta:0.9 in
  Alcotest.(check int) "fresh stage clean" 100
    (decide s1 ~me:0 ~my_window:100 ~observed)

let test_gtft_validation () =
  Alcotest.check_raises "bad r0" (Invalid_argument "Strategy.gtft: r0 must be >= 1")
    (fun () -> ignore (Macgame.Strategy.gtft ~initial:10 ~r0:0 ~beta:0.9));
  Alcotest.check_raises "bad beta"
    (Invalid_argument "Strategy.gtft: beta must be in (0, 1]") (fun () ->
      ignore (Macgame.Strategy.gtft ~initial:10 ~r0:1 ~beta:1.5))

let test_best_response_undercuts_large_windows () =
  let s = Macgame.Strategy.best_response (Macgame.Oracle.analytic small) ~initial:100 in
  let w = decide s ~me:0 ~my_window:100 ~observed:(obs [| 100; 100; 100; 100 |]) in
  Alcotest.(check bool) (Printf.sprintf "undercuts to %d" w) true (w < 100)

let test_strategy_names () =
  Alcotest.(check string) "tft" "tft"
    (Format.asprintf "%a" Macgame.Strategy.pp (Macgame.Strategy.tft ~initial:1));
  Alcotest.(check string) "fixed" "fixed(9)"
    (Format.asprintf "%a" Macgame.Strategy.pp (Macgame.Strategy.fixed 9))

(* {1 Repeated game} *)

let test_tft_converges_to_min () =
  let initials = [| 300; 150; 80; 200; 120 |] in
  let strategies = Macgame.Repeated.all_tft ~n:5 ~initials in
  let outcome = Macgame.Repeated.run (Macgame.Oracle.analytic default) ~strategies ~stages:6 in
  Alcotest.(check (option int)) "common window = min initial" (Some 80)
    (Macgame.Repeated.converged_window outcome);
  Alcotest.(check (option int)) "converged at stage 1" (Some 1) outcome.converged_at

let test_tft_fairness_after_convergence () =
  let strategies = Macgame.Repeated.all_tft ~n:4 ~initials:[| 90; 120; 100; 110 |] in
  let outcome = Macgame.Repeated.run (Macgame.Oracle.analytic default) ~strategies ~stages:8 in
  let last = outcome.trace.(Array.length outcome.trace - 1) in
  check_close ~eps:1e-9 "equal payoffs at the converged stage" 1.
    (Prelude.Stats.jain_fairness last.utilities)

let test_fixed_cheater_drags_tft_down () =
  let strategies =
    Array.append
      [| Macgame.Strategy.fixed 16 |]
      (Macgame.Repeated.all_tft ~n:4 ~initials:(Array.make 4 128))
  in
  let outcome = Macgame.Repeated.run (Macgame.Oracle.analytic default) ~strategies ~stages:6 in
  Alcotest.(check (option int)) "network converges to the cheater" (Some 16)
    (Macgame.Repeated.converged_window outcome)

let test_punished_cheater_loses_welfare () =
  (* The malicious-player conclusion of Sec. V.E.  Without exponential
     backoff (m = 0, the paper's implicit setting for the collapse
     argument) a W = 1 attacker drags welfare below zero; with m = 5
     backoff the damage is dampened but still monotone. *)
  let p0 = { default with Dcf.Params.max_backoff_stage = 0 } in
  let w_star = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic p0) ~n:5 in
  let strategies =
    Array.append
      [| Macgame.Strategy.malicious 1 |]
      (Macgame.Repeated.all_tft ~n:4 ~initials:(Array.make 4 w_star))
  in
  let outcome = Macgame.Repeated.run (Macgame.Oracle.analytic p0) ~strategies ~stages:6 in
  let last = outcome.trace.(Array.length outcome.trace - 1) in
  Alcotest.(check bool) "paralysed: negative welfare" true (last.welfare < 0.);
  (* With backoff (default m = 5) the network degrades but survives — a
     documented softening relative to the paper's collapse narrative. *)
  let w5 = Macgame.Equilibrium.social_welfare (Macgame.Oracle.analytic default) ~n:5 in
  Alcotest.(check bool) "monotone damage, but positive" true
    (w5 ~w:4 > 0. && w5 ~w:4 < w5 ~w:16 && w5 ~w:16 < w5 ~w:79)

let test_trace_shape_and_discounting () =
  let strategies = Macgame.Repeated.all_tft ~n:3 ~initials:[| 64; 64; 64 |] in
  let outcome = Macgame.Repeated.run (Macgame.Oracle.analytic default) ~strategies ~stages:5 in
  Alcotest.(check int) "one record per stage" 5 (Array.length outcome.trace);
  Array.iteri
    (fun k r -> Alcotest.(check int) "stage indices" k r.Macgame.Repeated.stage)
    outcome.trace;
  (* Constant profile: discounted utility = u*T*(1-δ^5)/(1-δ). *)
  let u = outcome.trace.(0).utilities.(0) in
  let d = default.Dcf.Params.discount and t = default.Dcf.Params.stage_duration in
  check_close ~eps:1e-9 "discount arithmetic"
    (u *. t *. (1. -. (d ** 5.)) /. (1. -. d))
    outcome.discounted.(0)

let test_run_validation () =
  Alcotest.check_raises "no players" (Invalid_argument "Repeated.run: no players")
    (fun () -> ignore (Macgame.Repeated.run (Macgame.Oracle.analytic default) ~strategies:[||] ~stages:1));
  Alcotest.check_raises "no stages"
    (Invalid_argument "Repeated.run: need at least one stage") (fun () ->
      ignore
        (Macgame.Repeated.run (Macgame.Oracle.analytic default)
           ~strategies:[| Macgame.Strategy.fixed 1 |]
           ~stages:0))

let test_custom_payoff_backend () =
  let strategies = Macgame.Repeated.all_tft ~n:2 ~initials:[| 8; 8 |] in
  let outcome =
    Macgame.Repeated.run (Macgame.Oracle.analytic default) ~strategies ~stages:3
      ~payoffs:(fun p -> Array.map (fun _ -> 0.) p)
  in
  Alcotest.(check (array (float 0.))) "zeros" [| 0.; 0. |] outcome.discounted

let test_tft_converges_from_qcheck_profiles =
  QCheck.Test.make ~name:"all-TFT games always converge to the min initial"
    ~count:40
    QCheck.(list_of_size Gen.(int_range 2 8) (int_range 1 400))
    (fun initials ->
      let initials = Array.of_list initials in
      let n = Array.length initials in
      let strategies = Macgame.Repeated.all_tft ~n ~initials in
      let outcome =
        Macgame.Repeated.run (Macgame.Oracle.analytic default) ~strategies ~stages:4
          ~payoffs:(fun p -> Array.map (fun _ -> 0.) p)
      in
      Macgame.Repeated.converged_window outcome
      = Some (Array.fold_left Stdlib.min initials.(0) initials))

let test_best_response_dynamics_collapse () =
  (* Myopic best-response play (the short-sighted world of [2]) drives
     windows far below the efficient NE. *)
  let n = 4 in
  let w_star = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic small) ~n in
  let strategies =
    Array.init n (fun _ -> Macgame.Strategy.best_response (Macgame.Oracle.analytic small) ~initial:w_star)
  in
  let outcome = Macgame.Repeated.run (Macgame.Oracle.analytic small) ~strategies ~stages:8 in
  let final_min = Macgame.Profile.min_window outcome.final in
  Alcotest.(check bool)
    (Printf.sprintf "collapsed: %d vs W*=%d" final_min w_star)
    true
    (final_min < w_star / 4)

let test_pre_convergence_shortfall () =
  let strategies = Macgame.Repeated.all_tft ~n:3 ~initials:[| 200; 100; 150 |] in
  let outcome = Macgame.Repeated.run (Macgame.Oracle.analytic default) ~strategies ~stages:6 in
  match Macgame.Repeated.pre_convergence_shortfall default outcome with
  | None -> Alcotest.fail "expected convergence"
  | Some shortfall ->
      (* Hand recomputation from the trace. *)
      let t0 = Option.get outcome.converged_at in
      let reference = outcome.trace.(5).utilities in
      Array.iteri
        (fun i s ->
          let expected = ref 0. in
          for k = 0 to t0 - 1 do
            expected :=
              !expected
              +. (default.Dcf.Params.discount ** float_of_int k)
                 *. default.Dcf.Params.stage_duration
                 *. (reference.(i) -. outcome.trace.(k).utilities.(i))
          done;
          check_close "matches trace arithmetic" !expected s)
        shortfall;
      (* The Sec. V.A approximation: the dropped term is tiny relative to
         the horizon total when delta is close to 1 (here the infinite-sum
         scale is u*T/(1-delta)). *)
      let scale =
        reference.(0) *. default.Dcf.Params.stage_duration
        /. (1. -. default.Dcf.Params.discount)
      in
      Array.iter
        (fun s ->
          Alcotest.(check bool) "negligible against the horizon" true
            (Float.abs s < 0.001 *. scale))
        shortfall

let test_pre_convergence_shortfall_none_without_convergence () =
  (* Alternate forever: no constant suffix. *)
  let flip = ref false in
  let strategy =
    {
      Macgame.Strategy.name = "alternator";
      initial = 10;
      decide =
        (fun _ ->
          flip := not !flip;
          if !flip then 20 else 10);
    }
  in
  let outcome =
    Macgame.Repeated.run (Macgame.Oracle.analytic default)
      ~strategies:[| strategy; Macgame.Strategy.fixed 15 |]
      ~stages:5
      ~payoffs:(fun p -> Array.map (fun _ -> 0.) p)
  in
  Alcotest.(check bool) "no convergence, no shortfall" true
    (Macgame.Repeated.pre_convergence_shortfall default outcome = None)

(* {1 Observer} *)

let test_perfect_observer () =
  let cws = [| 10; 20; 30 |] in
  Alcotest.(check (array int)) "identity" cws
    (Macgame.Observer.observe Macgame.Observer.perfect ~me:0 cws);
  let copy = Macgame.Observer.observe Macgame.Observer.perfect ~me:0 cws in
  copy.(1) <- 99;
  Alcotest.(check int) "returns a copy" 20 cws.(1)

let test_noisy_observer_keeps_own_window () =
  let rng = Prelude.Rng.create 5 in
  let observer = Macgame.Observer.noisy ~rng ~rel_stddev:0.5 in
  for _ = 1 to 50 do
    let seen = Macgame.Observer.observe observer ~me:1 [| 100; 64; 100 |] in
    Alcotest.(check int) "own window exact" 64 seen.(1);
    Alcotest.(check bool) "windows stay >= 1" true
      (Array.for_all (fun w -> w >= 1) seen)
  done

let test_noisy_observer_unbiased () =
  let rng = Prelude.Rng.create 6 in
  let observer = Macgame.Observer.noisy ~rng ~rel_stddev:0.1 in
  let acc = Prelude.Stats.create () in
  for _ = 1 to 2000 do
    let seen = Macgame.Observer.observe observer ~me:0 [| 1; 100 |] in
    Prelude.Stats.add acc (float_of_int seen.(1))
  done;
  check_close ~eps:0.02 "mean near truth" 100. (Prelude.Stats.mean acc)

let test_sampling_observer_error_shrinks () =
  let spread samples =
    let rng = Prelude.Rng.create 7 in
    let observer = Macgame.Observer.sampling ~rng ~samples_per_stage:samples in
    let acc = Prelude.Stats.create () in
    for _ = 1 to 500 do
      let seen = Macgame.Observer.observe observer ~me:0 [| 1; 128 |] in
      Prelude.Stats.add acc (float_of_int seen.(1))
    done;
    Prelude.Stats.stddev acc
  in
  Alcotest.(check bool) "more samples, sharper estimate" true
    (spread 100 < spread 4 /. 2.)

let test_sampling_error_formula () =
  (* Monte-Carlo stddev must match the analytic 2·σ_backoff/√k. *)
  let w = 64 and samples = 16 in
  let rng = Prelude.Rng.create 8 in
  let observer = Macgame.Observer.sampling ~rng ~samples_per_stage:samples in
  let acc = Prelude.Stats.create () in
  for _ = 1 to 4000 do
    let seen = Macgame.Observer.observe observer ~me:0 [| 1; w |] in
    Prelude.Stats.add acc (float_of_int seen.(1))
  done;
  let predicted = Macgame.Observer.estimate_error_stddev ~w ~samples in
  check_close ~eps:0.1 "stddev matches prediction" predicted (Prelude.Stats.stddev acc)

let test_gtft_robust_to_sampling_noise_where_tft_is_not () =
  (* Under a noisy observer, plain TFT ratchets the whole network downward
     (an underestimate of any window becomes everyone's next window and is
     never revised upward), while GTFT's tolerance keeps it at the efficient
     window.  This is the quantitative case for GTFT in Sec. IV. *)
  let run strategy_of =
    let rng = Prelude.Rng.create 99 in
    let observer = Macgame.Observer.sampling ~rng ~samples_per_stage:25 in
    let strategies = Array.init 5 (fun _ -> strategy_of ()) in
    let outcome =
      Macgame.Repeated.run (Macgame.Oracle.analytic default) ~observer ~strategies ~stages:30
        ~payoffs:(fun p -> Array.map (fun _ -> 0.) p)
    in
    Macgame.Profile.min_window outcome.final
  in
  let tft_final = run (fun () -> Macgame.Strategy.tft ~initial:79) in
  let gtft_final =
    run (fun () -> Macgame.Strategy.gtft ~initial:79 ~r0:3 ~beta:0.8)
  in
  Alcotest.(check bool)
    (Printf.sprintf "tft drifted to %d, gtft held at %d" tft_final gtft_final)
    true
    (tft_final < gtft_final && gtft_final >= 70)

let suite_profile =
  [
    Alcotest.test_case "uniform" `Quick test_profile_uniform;
    Alcotest.test_case "with_deviant" `Quick test_profile_with_deviant;
    Alcotest.test_case "validate" `Quick test_profile_validate;
    Alcotest.test_case "pp" `Quick test_profile_pp;
  ]

let suite_equilibrium =
  [
    Alcotest.test_case "Table II band" `Slow test_efficient_cw_table2_values;
    Alcotest.test_case "grows with n" `Quick test_efficient_cw_grows_with_n;
    Alcotest.test_case "rts below basic" `Quick test_efficient_cw_rts_below_basic;
    Alcotest.test_case "single player" `Quick test_efficient_cw_single_player;
    QCheck_alcotest.to_alcotest test_efficient_is_global_argmax;
    Alcotest.test_case "tau* via Q (lemma 3)" `Quick test_tau_star_q_properties;
    QCheck_alcotest.to_alcotest test_tau_star_scaling_law;
    Alcotest.test_case "tau* decreasing in n" `Quick test_tau_star_decreases_with_n;
    Alcotest.test_case "cw_of_tau inverts" `Quick test_cw_of_tau_inverts;
    Alcotest.test_case "break-even without backoff" `Quick test_break_even_no_backoff;
    Alcotest.test_case "break-even with backoff" `Quick test_break_even_with_backoff_is_one;
    Alcotest.test_case "NE set membership" `Quick test_ne_set_and_membership;
    Alcotest.test_case "welfare = n*u" `Quick test_social_welfare_is_n_times_payoff;
    Alcotest.test_case "robust range" `Quick test_robust_range_brackets_optimum;
    Alcotest.test_case "rts flatter" `Quick test_robust_range_wider_for_rts;
    QCheck_alcotest.to_alcotest test_lemma4_deviation_ordering;
    Alcotest.test_case "unilateral gain signs" `Quick test_unilateral_gain_signs;
  ]

let suite_strategy =
  [
    Alcotest.test_case "fixed" `Quick test_fixed_strategy;
    Alcotest.test_case "tft follows min" `Quick test_tft_follows_min;
    Alcotest.test_case "tft fixed point" `Quick test_tft_stable_at_uniform;
    Alcotest.test_case "gtft tolerates noise" `Quick test_gtft_tolerates_small_noise;
    Alcotest.test_case "gtft punishes cheating" `Quick test_gtft_punishes_real_cheating;
    Alcotest.test_case "gtft averages over r0" `Quick test_gtft_averages_over_r0;
    Alcotest.test_case "gtft validation" `Quick test_gtft_validation;
    Alcotest.test_case "best response undercuts" `Quick test_best_response_undercuts_large_windows;
    Alcotest.test_case "names" `Quick test_strategy_names;
  ]

let suite_repeated =
  [
    Alcotest.test_case "tft converges to min" `Quick test_tft_converges_to_min;
    Alcotest.test_case "fairness at convergence" `Quick test_tft_fairness_after_convergence;
    Alcotest.test_case "cheater drags network" `Quick test_fixed_cheater_drags_tft_down;
    Alcotest.test_case "malicious collapses welfare" `Quick test_punished_cheater_loses_welfare;
    Alcotest.test_case "trace shape and discounting" `Quick test_trace_shape_and_discounting;
    Alcotest.test_case "validation" `Quick test_run_validation;
    Alcotest.test_case "custom payoff backend" `Quick test_custom_payoff_backend;
    QCheck_alcotest.to_alcotest test_tft_converges_from_qcheck_profiles;
    Alcotest.test_case "best-response collapse" `Slow test_best_response_dynamics_collapse;
    Alcotest.test_case "pre-convergence shortfall (Sec. V.A)" `Quick test_pre_convergence_shortfall;
    Alcotest.test_case "shortfall needs convergence" `Quick test_pre_convergence_shortfall_none_without_convergence;
  ]

let suite_observer =
  [
    Alcotest.test_case "perfect" `Quick test_perfect_observer;
    Alcotest.test_case "noisy keeps own window" `Quick test_noisy_observer_keeps_own_window;
    Alcotest.test_case "noisy unbiased" `Quick test_noisy_observer_unbiased;
    Alcotest.test_case "sampling error shrinks" `Quick test_sampling_observer_error_shrinks;
    Alcotest.test_case "sampling error formula" `Quick test_sampling_error_formula;
    Alcotest.test_case "gtft robust, tft ratchets" `Slow test_gtft_robust_to_sampling_noise_where_tft_is_not;
  ]

let () =
  Alcotest.run "game"
    [
      ("profile", suite_profile);
      ("equilibrium", suite_equilibrium);
      ("strategy", suite_strategy);
      ("repeated", suite_repeated);
      ("observer", suite_observer);
    ]
