(* Tests for the analytic DCF model: protocol parameters, channel timing,
   the per-node Markov chain, the coupled fixed point, channel metrics and
   the utility model.  Several tests verify the paper's lemmas numerically. *)

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Prelude.Util.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let default = Dcf.Params.default
let rts_cts = Dcf.Params.rts_cts

(* {1 Params} *)

let test_default_is_table1 () =
  Alcotest.(check int) "payload" 8184 default.payload_bits;
  Alcotest.(check int) "mac header" 272 default.mac_header_bits;
  Alcotest.(check int) "phy header" 128 default.phy_header_bits;
  Alcotest.(check int) "ack" 112 default.ack_bits;
  Alcotest.(check int) "rts" 160 default.rts_bits;
  Alcotest.(check int) "cts" 112 default.cts_bits;
  check_close "bit rate" 1e6 default.bit_rate;
  check_close "sigma" 50e-6 default.sigma;
  check_close "sifs" 28e-6 default.sifs;
  check_close "difs" 128e-6 default.difs;
  check_close "gain" 1. default.gain;
  check_close "cost" 0.01 default.cost;
  check_close "stage duration" 10. default.stage_duration;
  check_close "discount" 0.9999 default.discount;
  Alcotest.(check bool) "basic mode" true (default.mode = Dcf.Params.Basic)

let test_validate_accepts_default () =
  (match Dcf.Params.validate default with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default rejected: %s" e);
  match Dcf.Params.validate rts_cts with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rts_cts rejected: %s" e

let expect_invalid params =
  match Dcf.Params.validate params with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error _ -> ()

let test_validate_rejects_bad_fields () =
  expect_invalid { default with payload_bits = 0 };
  expect_invalid { default with bit_rate = 0. };
  expect_invalid { default with sigma = 0. };
  expect_invalid { default with gain = 0.005 } (* g must exceed e *);
  expect_invalid { default with cost = -1. };
  expect_invalid { default with discount = 1. };
  expect_invalid { default with discount = 0. };
  expect_invalid { default with max_backoff_stage = -1 };
  expect_invalid { default with cw_max = 0 };
  expect_invalid { default with stage_duration = 0. }

let test_validate_bounds_largest_window () =
  (* cw_max·2^m must be an int: 2^12·2^49 is, 2^12·2^50 is not. *)
  let accepts params =
    match Dcf.Params.validate params with
    | Ok () -> ()
    | Error e -> Alcotest.failf "m = %d rejected: %s" params.max_backoff_stage e
  in
  accepts { default with max_backoff_stage = 49 };
  expect_invalid { default with max_backoff_stage = 50 };
  accepts { default with cw_max = 1; max_backoff_stage = 61 };
  expect_invalid { default with cw_max = 1; max_backoff_stage = 62 };
  expect_invalid { default with cw_max = 1; max_backoff_stage = max_int }

let test_with_mode () =
  Alcotest.(check bool) "switches" true
    ((Dcf.Params.with_mode Dcf.Params.Rts_cts default).mode = Dcf.Params.Rts_cts)

let test_pp_renders () =
  let s = Format.asprintf "%a" Dcf.Params.pp default in
  Alcotest.(check bool) "mentions payload" true (String.length s > 100)

(* {1 Timing} *)

let us x = x *. 1e-6

let test_timing_basic () =
  let t = Dcf.Timing.of_params default in
  (* H = (272+128) bits at 1 Mb/s = 400 us, P = 8184 us, ACK = 240 us. *)
  check_close "header" (us 400.) t.header;
  check_close "payload" (us 8184.) t.payload;
  check_close "Ts = H+P+SIFS+ACK+DIFS" (us (400. +. 8184. +. 28. +. 240. +. 128.)) t.ts;
  check_close "Tc = H+P+SIFS" (us (400. +. 8184. +. 28.)) t.tc

let test_timing_rts_cts () =
  let t = Dcf.Timing.of_params rts_cts in
  (* RTS = 288 us, CTS = 240 us on the air. *)
  check_close "Ts covers the whole dialogue"
    (us (288. +. 28. +. 240. +. 28. +. 400. +. 8184. +. 28. +. 240. +. 128.))
    t.ts;
  check_close "Tc = RTS+DIFS" (us (288. +. 128.)) t.tc

let test_timing_rts_collisions_cheap () =
  let b = Dcf.Timing.of_params default and r = Dcf.Timing.of_params rts_cts in
  Alcotest.(check bool) "Tc(rts) << Tc(basic)" true (r.tc < b.tc /. 10.);
  Alcotest.(check bool) "Ts(rts) > Ts(basic)" true (r.ts > b.ts)

let test_tx_time () =
  check_close "1000 bits at 1Mb/s" 1e-3 (Dcf.Timing.tx_time default 1000)

(* {1 Bianchi chain} *)

let test_tau_at_p_zero () =
  List.iter
    (fun w ->
      check_close
        (Printf.sprintf "tau(p=0, W=%d) = 2/(W+1)" w)
        (2. /. float_of_int (w + 1))
        (Dcf.Bianchi.tau_of_p ~w ~m:5 0.))
    [ 1; 2; 16; 32; 1024 ]

let test_tau_no_backoff_ignores_p () =
  (* m = 0: no exponential backoff, so τ does not depend on p. *)
  List.iter
    (fun p ->
      check_close "tau(m=0) = 2/(W+1)" (2. /. 33.) (Dcf.Bianchi.tau_of_p ~w:32 ~m:0 p))
    [ 0.; 0.3; 0.5; 0.99; 1. ]

let test_tau_at_half_finite () =
  (* p = 1/2 is the removable singularity of the printed closed form. *)
  let tau = Dcf.Bianchi.tau_of_p ~w:32 ~m:5 0.5 in
  Alcotest.(check bool) "finite" true (Float.is_finite tau && tau > 0.);
  (* Σ(2p)^j = m at p = 1/2. *)
  check_close "value" (2. /. (1. +. 32. +. (0.5 *. 32. *. 5.))) tau

let test_tau_ratio_form_agrees =
  QCheck.Test.make ~name:"eq.2 ratio form = singularity-free form (p != 1/2)"
    ~count:300
    QCheck.(triple (int_range 1 1024) (int_range 0 8) (float_bound_inclusive 0.99))
    (fun (w, m, p) ->
      QCheck.assume (Float.abs (p -. 0.5) > 1e-3);
      let a = Dcf.Bianchi.tau_of_p ~w ~m p in
      let b = Dcf.Bianchi.tau_of_p_ratio_form ~w ~m p in
      Prelude.Util.approx_equal ~eps:1e-9 a b)

let test_tau_monotone_in_p =
  QCheck.Test.make ~name:"tau decreasing in p" ~count:300
    QCheck.(triple (int_range 1 1024) (int_range 1 8)
              (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (w, m, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      QCheck.assume (hi -. lo > 1e-9);
      Dcf.Bianchi.tau_of_p ~w ~m lo >= Dcf.Bianchi.tau_of_p ~w ~m hi -. 1e-12)

let test_tau_monotone_in_w =
  QCheck.Test.make ~name:"tau decreasing in W" ~count:300
    QCheck.(triple (int_range 1 2048) (int_range 0 8) (float_bound_inclusive 1.))
    (fun (w, m, p) ->
      Dcf.Bianchi.tau_of_p ~w ~m p > Dcf.Bianchi.tau_of_p ~w:(w + 1) ~m p)

let test_tau_bounds =
  QCheck.Test.make ~name:"tau in (0, 1]" ~count:300
    QCheck.(triple (int_range 1 4096) (int_range 0 10) (float_bound_inclusive 1.))
    (fun (w, m, p) ->
      let tau = Dcf.Bianchi.tau_of_p ~w ~m p in
      tau > 0. && tau <= 1.)

let test_stationary_normalised =
  QCheck.Test.make ~name:"stationary distribution sums to 1" ~count:300
    QCheck.(triple (int_range 1 512) (int_range 0 8) (float_bound_inclusive 0.999))
    (fun (w, m, p) ->
      let st = Dcf.Bianchi.stationary ~w ~m p in
      Prelude.Util.approx_equal ~eps:1e-9 1. (Dcf.Bianchi.total_mass ~w ~m st))

let test_stationary_tau_matches_closed_form =
  QCheck.Test.make ~name:"stationary tau = closed form" ~count:300
    QCheck.(triple (int_range 1 512) (int_range 0 8) (float_bound_inclusive 0.999))
    (fun (w, m, p) ->
      let st = Dcf.Bianchi.stationary ~w ~m p in
      Prelude.Util.approx_equal ~eps:1e-9 (Dcf.Bianchi.tau_of_p ~w ~m p) st.tau)

let test_stationary_heads_decay () =
  let st = Dcf.Bianchi.stationary ~w:32 ~m:5 0.3 in
  (* q(j,0) = p^j·q00 strictly decays below stage m for p < 1. *)
  for j = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "head %d > head %d" j (j + 1))
      true
      (st.stage_heads.(j) > st.stage_heads.(j + 1))
  done

let test_stationary_p_one_edge () =
  let st = Dcf.Bianchi.stationary ~w:4 ~m:2 1. in
  check_close "all mass on last stage" (2. /. 17.) st.tau;
  check_close "tau matches formula limit" (Dcf.Bianchi.tau_of_p ~w:4 ~m:2 1.) st.tau

let test_expected_backoff () =
  check_close "W=32" 15.5 (Dcf.Bianchi.expected_backoff ~w:32);
  check_close "W=1 never waits" 0. (Dcf.Bianchi.expected_backoff ~w:1)

let test_bianchi_argument_validation () =
  Alcotest.check_raises "w=0" (Invalid_argument "Bianchi: window must be >= 1")
    (fun () -> ignore (Dcf.Bianchi.tau_of_p ~w:0 ~m:5 0.1));
  Alcotest.check_raises "m<0" (Invalid_argument "Bianchi: max stage must be >= 0")
    (fun () -> ignore (Dcf.Bianchi.tau_of_p ~w:16 ~m:(-1) 0.1));
  Alcotest.check_raises "p>1" (Invalid_argument "Bianchi: p must be in [0, 1]")
    (fun () -> ignore (Dcf.Bianchi.tau_of_p ~w:16 ~m:5 1.5))

(* {1 Solver} *)

let test_single_node_never_collides () =
  let tau, p = Dcf.Solver.solve_homogeneous default ~n:1 ~w:32 in
  check_close "p = 0" 0. p;
  check_close "tau = 2/(W+1)" (2. /. 33.) tau

let test_homogeneous_matches_vector_solve =
  QCheck.Test.make ~name:"scalar and vector solvers agree on uniform profiles"
    ~count:60
    QCheck.(pair (int_range 2 30) (int_range 1 512))
    (fun (n, w) ->
      let tau, p = Dcf.Solver.solve_homogeneous default ~n ~w in
      let solution = Dcf.Solver.solve_profile default (Array.make n w) in
      Array.for_all (fun t -> Prelude.Util.approx_equal ~eps:1e-7 tau t) solution.taus
      && Array.for_all (fun q -> Prelude.Util.approx_equal ~eps:1e-7 p q) solution.ps)

let test_vector_solve_converges () =
  let solution = Dcf.Solver.solve_profile default [| 16; 32; 64; 128; 256 |] in
  Alcotest.(check bool) "converged" true solution.converged

let test_eq3_identity =
  QCheck.Test.make ~name:"(1-p_i)(1-tau_i) is the same for all i (eq. 5)"
    ~count:60
    QCheck.(list_of_size Gen.(int_range 2 8) (int_range 1 512))
    (fun cws ->
      let cws = Array.of_list cws in
      let s = Dcf.Solver.solve_profile default cws in
      let prods =
        Array.map2 (fun tau p -> (1. -. p) *. (1. -. tau)) s.taus s.ps
      in
      Array.for_all (fun x -> Prelude.Util.approx_equal ~eps:1e-8 prods.(0) x) prods)

let test_lemma1_ordering =
  (* Lemma 1: W_i > W_j implies p_i > p_j, tau_i < tau_j and U_i < U_j. *)
  QCheck.Test.make ~name:"lemma 1: larger window loses" ~count:60
    QCheck.(triple (int_range 2 8) (int_range 1 256) (int_range 1 255))
    (fun (n, w_small, gap) ->
      let w_big = w_small + gap in
      let cws = Array.make n w_small in
      cws.(0) <- w_big;
      let solved = Dcf.Model.solve_profile default cws in
      solved.ps.(0) > solved.ps.(1)
      && solved.taus.(0) < solved.taus.(1)
      && solved.utilities.(0) < solved.utilities.(1))

let test_collision_probabilities_with_certain_transmitter () =
  (* A node with tau = 1 gives everyone else p = 1 without dividing by 0. *)
  let ps =
    Conformance.Solver_core.collision_probabilities [| 1.0; 0.1; 0.2 |]
  in
  check_close "others face p=1 (node 1)" 1. ps.(1);
  check_close "others face p=1 (node 2)" 1. ps.(2);
  check_close "the certain transmitter faces the rest" (1. -. (0.9 *. 0.8)) ps.(0)

let test_collision_probabilities_empty_product () =
  let ps = Conformance.Solver_core.collision_probabilities [| 0.3 |] in
  check_close "single node faces nobody" 0. ps.(0)

let test_solver_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Solver.solve_profile: empty network") (fun () ->
      ignore (Dcf.Solver.solve_profile default [||]));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Solver.solve_profile: window must be >= 1") (fun () ->
      ignore (Dcf.Solver.solve_profile default [| 16; 0 |]))

(* {1 Metrics} *)

let test_metrics_fractions_sum_to_one =
  QCheck.Test.make ~name:"idle+success+collision fractions = 1" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 10) (int_range 1 512))
    (fun cws ->
      let s = Dcf.Solver.solve_profile default (Array.of_list cws) in
      let metrics = Dcf.Metrics.of_taus default s.taus in
      Prelude.Util.approx_equal ~eps:1e-9 1.
        (Dcf.Metrics.idle_fraction metrics
        +. Dcf.Metrics.success_fraction metrics
        +. Dcf.Metrics.collision_fraction metrics))

let test_metrics_throughput_bounds =
  QCheck.Test.make ~name:"normalised throughput in (0, 1)" ~count:60
    QCheck.(pair (int_range 1 20) (int_range 1 512))
    (fun (n, w) ->
      let s = Dcf.Solver.solve_profile default (Array.make n w) in
      let metrics = Dcf.Metrics.of_taus default s.taus in
      metrics.throughput > 0. && metrics.throughput < 1.)

let test_metrics_per_node_sums () =
  let s = Dcf.Solver.solve_profile default [| 32; 64; 128 |] in
  let metrics = Dcf.Metrics.of_taus default s.taus in
  let sum = Array.fold_left ( +. ) 0. metrics.per_node_throughput in
  check_close "per-node shares sum to S" metrics.throughput sum;
  let p_succ = Array.fold_left ( +. ) 0. metrics.per_node_success in
  check_close "success probabilities consistent" (metrics.p_tr *. metrics.p_s) p_succ

let test_metrics_single_node () =
  let metrics = Dcf.Metrics.of_taus default [| 0.2 |] in
  check_close "alone means no collisions" 1. metrics.p_s;
  check_close "no collision time" 0. (Dcf.Metrics.collision_fraction metrics)

let test_metrics_symmetric_fairness () =
  let s = Dcf.Solver.solve_profile default (Array.make 6 64) in
  let metrics = Dcf.Metrics.of_taus default s.taus in
  check_close "jain index 1 under symmetry" 1.
    (Prelude.Stats.jain_fairness metrics.per_node_throughput)

let test_known_bianchi_shape () =
  (* Saturation throughput first rises then falls as W shrinks; the optimum
     for n=20 basic at 1 Mb/s sits in the hundreds. *)
  let s w =
    (Dcf.Metrics.of_taus default
       (Dcf.Solver.solve_profile default (Array.make 20 w)).taus)
      .throughput
  in
  Alcotest.(check bool) "W=8 heavily colliding" true (s 8 < s 256);
  Alcotest.(check bool) "W=4096 too idle" true (s 4096 < s 512)

(* {1 Utility} *)

let test_utility_sign_structure () =
  (* Large window, few nodes: success dominates, utility positive. *)
  let v = Dcf.Model.homogeneous default ~n:5 ~w:512 in
  Alcotest.(check bool) "positive at large W" true (v.utility > 0.);
  (* p = 1 means pure cost. *)
  let u = Dcf.Utility.rate_of_node default ~slot_time:1e-3 ~tau:0.5 ~p:1. in
  Alcotest.(check bool) "pure loss when every attempt collides" true (u < 0.)

let test_utility_rates_match_rate_of_node () =
  let s = Dcf.Solver.solve_profile default [| 32; 128 |] in
  let metrics = Dcf.Metrics.of_taus default s.taus in
  let rates = Dcf.Utility.rates default ~taus:s.taus ~ps:s.ps in
  Array.iteri
    (fun i r ->
      check_close "componentwise"
        (Dcf.Utility.rate_of_node default ~slot_time:metrics.slot_time
           ~tau:s.taus.(i) ~p:s.ps.(i))
        r)
    rates

let test_utility_p_hn_scales_gain () =
  let s = Dcf.Solver.solve_profile default [| 64; 64; 64 |] in
  let full = Dcf.Utility.rates default ~taus:s.taus ~ps:s.ps in
  let degraded = Dcf.Utility.rates ~p_hn:0.5 default ~taus:s.taus ~ps:s.ps in
  (* u(p_hn) = tau((1-p)·p_hn·g - e)/T: the gain part halves, cost stays. *)
  Array.iteri
    (fun i u ->
      Alcotest.(check bool) "degraded below full" true (degraded.(i) < u);
      let tau = s.taus.(i) and p = s.ps.(i) in
      let metrics = Dcf.Metrics.of_taus default s.taus in
      check_close "exact degradation"
        (tau *. (((1. -. p) *. 0.5 *. default.gain) -. default.cost)
        /. metrics.slot_time)
        degraded.(i))
    full

let test_utility_p_hn_validation () =
  let s = Dcf.Solver.solve_profile default [| 64 |] in
  Alcotest.check_raises "p_hn = 0" (Invalid_argument "Utility: p_hn must be in (0, 1]")
    (fun () -> ignore (Dcf.Utility.rates ~p_hn:0. default ~taus:s.taus ~ps:s.ps));
  Alcotest.check_raises "p_hn = nan" (Invalid_argument "Utility: p_hn must be in (0, 1]")
    (fun () -> ignore (Dcf.Utility.rates ~p_hn:nan default ~taus:s.taus ~ps:s.ps))

let test_stage_and_discounted () =
  check_close "stage = u*T" 42. (Dcf.Utility.stage default 4.2);
  check_close "discounted geometric series" (4.2 *. 10. /. (1. -. 0.9999))
    (Dcf.Utility.discounted default 4.2);
  check_close "tail discounts by delta^k"
    (0.9999 ** 10. *. Dcf.Utility.discounted default 4.2)
    (Dcf.Utility.discounted_tail default ~from_stage:10 4.2)

let test_normalized_global () =
  check_close "U/C = sigma*sum/g" (50e-6 *. 6. /. 1.)
    (Dcf.Utility.normalized_global default [| 1.; 2.; 3. |])

(* {1 Model facade} *)

let test_model_solve_consistency () =
  let cws = [| 16; 64; 256 |] in
  let solved = Dcf.Model.solve_profile default cws in
  let direct = Dcf.Solver.solve_profile default cws in
  Array.iteri
    (fun i tau -> check_close "taus agree" tau solved.taus.(i))
    direct.taus;
  let rates = Dcf.Utility.rates default ~taus:direct.taus ~ps:direct.ps in
  Array.iteri (fun i u -> check_close "utilities agree" u solved.utilities.(i)) rates

let test_model_homogeneous_view () =
  let v = Dcf.Model.homogeneous default ~n:5 ~w:79 in
  let tau, p = Dcf.Solver.solve_homogeneous default ~n:5 ~w:79 in
  check_close "tau" tau v.tau;
  check_close "p" p v.p;
  check_close "welfare = n*u" (5. *. v.utility)
    (Dcf.Model.homogeneous_welfare default ~n:5 ~w:79)

(* One deviant among conformers (Lemma 4's configuration): the
   class-reduced profile solve satisfies eqs. 2–3 node by node, evaluated
   without the class engine, and prices every node from those values. *)
let test_model_deviant_view_consistency () =
  let cws = Array.make 5 128 in
  cws.(0) <- 32;
  let dv = Dcf.Model.solve_profile default cws in
  let ps = Conformance.Solver_core.collision_probabilities dv.taus in
  Array.iteri
    (fun i w ->
      check_close ~eps:1e-12 "eq. 3" ps.(i) dv.ps.(i);
      check_close ~eps:1e-12 "eq. 2"
        (Dcf.Bianchi.tau_of_p ~w ~m:default.max_backoff_stage ps.(i))
        dv.taus.(i))
    cws;
  Array.iteri
    (fun i u -> check_close "utility" u dv.utilities.(i))
    (Dcf.Utility.rates default ~taus:dv.taus ~ps)

let test_lemma2_own_window_payoff_unimodal () =
  (* U_i is concave in tau_i (Lemma 2), hence unimodal in W_i: scan a grid
     and check the sign pattern of differences changes at most once. *)
  let others = 128 in
  let payoff w_i =
    let cws = Array.make 5 others in
    cws.(0) <- w_i;
    (Dcf.Model.solve_profile default cws).utilities.(0)
  in
  let ws = Array.init 100 (fun i -> 1 + (i * 5)) in
  let values = Array.map payoff ws in
  let changes = ref 0 in
  for i = 0 to Array.length values - 3 do
    let d1 = values.(i + 1) -. values.(i) and d2 = values.(i + 2) -. values.(i + 1) in
    if d1 > 0. && d2 < 0. then incr changes;
    if d1 < 0. && d2 > 0. then Alcotest.fail "payoff rose after falling: not unimodal"
  done;
  Alcotest.(check bool) "at most one peak" true (!changes <= 1)

let test_lemma3_common_window_payoff_unimodal () =
  let payoff w = (Dcf.Model.homogeneous default ~n:10 ~w).Dcf.Model.utility in
  let ws = Array.init 120 (fun i -> 1 + (i * 10)) in
  let values = Array.map payoff ws in
  let rising = ref true in
  Array.iteri
    (fun i v ->
      if i > 0 then begin
        if v > values.(i - 1) +. 1e-12 then begin
          if not !rising then Alcotest.fail "second rise: not unimodal"
        end
        else rising := false
      end)
    values

let suite_params =
  [
    Alcotest.test_case "defaults = Table I" `Quick test_default_is_table1;
    Alcotest.test_case "validate accepts defaults" `Quick test_validate_accepts_default;
    Alcotest.test_case "validate rejects bad fields" `Quick test_validate_rejects_bad_fields;
    Alcotest.test_case "validate bounds the largest window" `Quick test_validate_bounds_largest_window;
    Alcotest.test_case "with_mode" `Quick test_with_mode;
    Alcotest.test_case "pp renders" `Quick test_pp_renders;
  ]

let suite_timing =
  [
    Alcotest.test_case "basic durations" `Quick test_timing_basic;
    Alcotest.test_case "rts/cts durations" `Quick test_timing_rts_cts;
    Alcotest.test_case "rts collisions are cheap" `Quick test_timing_rts_collisions_cheap;
    Alcotest.test_case "tx_time" `Quick test_tx_time;
  ]

let test_dtau_dp_matches_finite_difference =
  QCheck.Test.make ~name:"dtau_dp agrees with central differences" ~count:200
    QCheck.(
      triple (int_range 2 1024) (int_range 0 8) (float_range 0.02 0.95))
    (fun (w, m, p) ->
      let h = 1e-6 in
      let numeric =
        (Dcf.Bianchi.tau_of_p ~w ~m (p +. h)
        -. Dcf.Bianchi.tau_of_p ~w ~m (p -. h))
        /. (2. *. h)
      in
      let analytic = Dcf.Bianchi.dtau_dp ~w ~m p in
      analytic <= 0.
      && Prelude.Util.approx_equal
           ~eps:(1e-4 *. Float.max 1e-6 (Float.abs numeric))
           numeric analytic)

let suite_bianchi =
  [
    Alcotest.test_case "tau at p=0" `Quick test_tau_at_p_zero;
    Alcotest.test_case "m=0 ignores p" `Quick test_tau_no_backoff_ignores_p;
    Alcotest.test_case "p=1/2 singularity removed" `Quick test_tau_at_half_finite;
    QCheck_alcotest.to_alcotest test_tau_ratio_form_agrees;
    QCheck_alcotest.to_alcotest test_tau_monotone_in_p;
    QCheck_alcotest.to_alcotest test_tau_monotone_in_w;
    QCheck_alcotest.to_alcotest test_tau_bounds;
    QCheck_alcotest.to_alcotest test_stationary_normalised;
    QCheck_alcotest.to_alcotest test_stationary_tau_matches_closed_form;
    Alcotest.test_case "stage heads decay" `Quick test_stationary_heads_decay;
    Alcotest.test_case "p=1 edge" `Quick test_stationary_p_one_edge;
    Alcotest.test_case "expected backoff" `Quick test_expected_backoff;
    Alcotest.test_case "argument validation" `Quick test_bianchi_argument_validation;
    QCheck_alcotest.to_alcotest test_dtau_dp_matches_finite_difference;
  ]

(* {2 Newton core (PR 9)} *)

let strategy ~cw ~aifs =
  { Dcf.Strategy_space.cw; aifs; txop_frames = 1; rate = 1. }

let certified msg params classes (sol : Dcf.Solver.class_solution) =
  let c = Conformance.Solver_core.certify params classes sol in
  Alcotest.(check bool)
    (Printf.sprintf "%s: defect %.1e, %d iters from the perturbed answer" msg
       c.defect c.resolve_iterations)
    true (c.margin <= 1.)

let test_newton_certified_classes () =
  let classes = [ (32, 5); (64, 10); (128, 3) ] in
  let sol = Dcf.Solver.solve_classes default classes in
  Alcotest.(check bool) "converged" true sol.converged;
  certified "classes" default
    (List.map (fun (w, k) -> (Dcf.Strategy_space.of_cw w, k)) classes)
    sol

let test_newton_certified_strategies () =
  let classes = [ (strategy ~cw:32 ~aifs:0, 4); (strategy ~cw:64 ~aifs:2, 6) ] in
  let sol = Dcf.Solver.solve_strategy_classes default classes in
  Alcotest.(check bool) "converged" true sol.converged;
  certified "strategies" default classes sol

(* [1] proves a unique fixed point for homogeneous windows only.  For
   heterogeneous strategy classes, a cold solve and a solve started from
   random interior τs must land on the same certified point.  Agreement
   is absolute: at a 1e-14 defect a small τ reads up to ~3e-8 apart
   relative to itself. *)
let test_uniqueness_probe =
  QCheck.Test.make ~name:"cold and random starts agree (uniqueness probe)"
    ~count:300
    (* Unshrunk: QCheck's shrinkers leave the generator's ranges. *)
    QCheck.(
      set_shrink Shrink.nil
        (quad
           (list_of_size Gen.(int_range 1 8)
              (triple (int_range 1 1024) (int_range 0 3) (int_range 1 12)))
           (int_range 0 7) bool
           (array_of_size (Gen.return 8) (float_bound_exclusive 1.))))
    (fun (classes, m, rts, starts) ->
      let params =
        {
          (if rts then Dcf.Params.rts_cts else default) with
          max_backoff_stage = m;
        }
      in
      let classes =
        List.map (fun (cw, aifs, k) -> (strategy ~cw ~aifs, k)) classes
      in
      let tau_hint s =
        let rec find i = function
          | [] -> None
          | (s', _) :: rest ->
              if Dcf.Strategy_space.equal s s' then Some starts.(i)
              else find (i + 1) rest
        in
        find 0 classes
      in
      let cold = Dcf.Solver.solve_strategy_classes params classes in
      let hinted = Dcf.Solver.solve_strategy_classes ~tau_hint params classes in
      let passes sol =
        (Conformance.Solver_core.certify params classes sol).margin <= 1.
      in
      cold.converged && hinted.converged && passes cold && passes hinted
      && List.for_all2
           (fun (t, p) (t', p') ->
             Float.abs (t -. t') <= 1e-11 && Float.abs (p -. p') <= 1e-11)
           cold.class_pairs hinted.class_pairs)

let test_solver_reports_nonconvergence () =
  (* One iteration cannot close a heterogeneous fixed point: every layer
     must say so instead of fabricating convergence. *)
  let classes = [ (32, 5); (320, 5) ] in
  let solved = Dcf.Solver.solve_classes ~max_iter:1 default classes in
  Alcotest.(check bool) "solve_classes" false solved.converged;
  let solved =
    Dcf.Solver.solve_strategy_classes ~max_iter:1 default
      [ (strategy ~cw:32 ~aifs:0, 5); (strategy ~cw:320 ~aifs:1, 5) ]
  in
  Alcotest.(check bool) "solve_strategy_classes" false solved.converged;
  let solution =
    Dcf.Solver.solve_profile ~max_iter:1 default
      (Array.init 10 (fun i -> 32 + (32 * i)))
  in
  Alcotest.(check bool) "solve_profile" false solution.converged

(* Both class entry points run one engine: CW classes lifted to CW-only
   strategies must solve bit for bit alike — pairs, iterations and
   [converged] — whatever the stage count, the hints or the budget. *)
let test_cw_classes_one_engine =
  let same_bits (a : Dcf.Solver.class_solution)
      (b : Dcf.Solver.class_solution) =
    let bits x = Int64.bits_of_float x in
    a.iterations = b.iterations
    && a.converged = b.converged
    && List.equal
         (fun (t, p) (t', p') ->
           Int64.equal (bits t) (bits t') && Int64.equal (bits p) (bits p'))
         a.class_pairs b.class_pairs
  in
  QCheck.Test.make ~name:"CW classes: strategy solver bit-identical"
    ~count:200
    QCheck.(
      quad
        (list_of_size Gen.(int_range 1 6)
           (pair (int_range 1 1023) (int_range 1 12)))
        (int_range 0 7)
        (option (int_range 1 8))
        (option (int_range 1 1000)))
    (fun (classes, m, max_iter, salt) ->
      let params = { default with max_backoff_stage = m } in
      (* Interior hints for most windows, none or out-of-range ones for the
         rest, so both the hinted and the default starts are exercised. *)
      let tau_hint =
        Option.map
          (fun salt w ->
            match (w + salt) mod 5 with
            | 0 -> None
            | 1 -> Some 1.5
            | _ -> Some (float_of_int (((w * salt) mod 997) + 1) /. 1000.))
          salt
      in
      let cw = Dcf.Solver.solve_classes ?tau_hint ?max_iter params classes in
      let lifted =
        List.map (fun (w, k) -> (Dcf.Strategy_space.of_cw w, k)) classes
      in
      let tau_hint =
        Option.map
          (fun hint (s : Dcf.Strategy_space.t) -> hint s.cw)
          tau_hint
      in
      let strategies =
        Dcf.Solver.solve_strategy_classes ?tau_hint ?max_iter params lifted
      in
      same_bits cw strategies)

let suite_solver =
  [
    Alcotest.test_case "single node" `Quick test_single_node_never_collides;
    QCheck_alcotest.to_alcotest test_homogeneous_matches_vector_solve;
    Alcotest.test_case "vector solve converges" `Quick test_vector_solve_converges;
    QCheck_alcotest.to_alcotest test_eq3_identity;
    QCheck_alcotest.to_alcotest test_lemma1_ordering;
    Alcotest.test_case "tau=1 handled" `Quick test_collision_probabilities_with_certain_transmitter;
    Alcotest.test_case "empty product" `Quick test_collision_probabilities_empty_product;
    Alcotest.test_case "validation" `Quick test_solver_validation;
    Alcotest.test_case "newton certified (classes)" `Quick
      test_newton_certified_classes;
    Alcotest.test_case "newton certified (strategies)" `Quick
      test_newton_certified_strategies;
    QCheck_alcotest.to_alcotest test_uniqueness_probe;
    Alcotest.test_case "non-convergence surfaces" `Quick
      test_solver_reports_nonconvergence;
    QCheck_alcotest.to_alcotest test_cw_classes_one_engine;
  ]

let suite_metrics =
  [
    QCheck_alcotest.to_alcotest test_metrics_fractions_sum_to_one;
    QCheck_alcotest.to_alcotest test_metrics_throughput_bounds;
    Alcotest.test_case "per-node sums" `Quick test_metrics_per_node_sums;
    Alcotest.test_case "single node" `Quick test_metrics_single_node;
    Alcotest.test_case "symmetric fairness" `Quick test_metrics_symmetric_fairness;
    Alcotest.test_case "bianchi curve shape" `Quick test_known_bianchi_shape;
  ]

let suite_utility =
  [
    Alcotest.test_case "sign structure" `Quick test_utility_sign_structure;
    Alcotest.test_case "rates componentwise" `Quick test_utility_rates_match_rate_of_node;
    Alcotest.test_case "p_hn scales gain only" `Quick test_utility_p_hn_scales_gain;
    Alcotest.test_case "p_hn validation" `Quick test_utility_p_hn_validation;
    Alcotest.test_case "stage and discounted" `Quick test_stage_and_discounted;
    Alcotest.test_case "normalised global payoff" `Quick test_normalized_global;
  ]

let suite_model =
  [
    Alcotest.test_case "solve facade consistency" `Quick test_model_solve_consistency;
    Alcotest.test_case "homogeneous view" `Quick test_model_homogeneous_view;
    Alcotest.test_case "deviant view consistency" `Quick test_model_deviant_view_consistency;
    Alcotest.test_case "lemma 2: own-window unimodality" `Quick test_lemma2_own_window_payoff_unimodal;
    Alcotest.test_case "lemma 3: common-window unimodality" `Quick test_lemma3_common_window_payoff_unimodal;
  ]

let () =
  Alcotest.run "dcf"
    [
      ("params", suite_params);
      ("timing", suite_timing);
      ("bianchi", suite_bianchi);
      ("solver", suite_solver);
      ("metrics", suite_metrics);
      ("utility", suite_utility);
      ("model", suite_model);
    ]
