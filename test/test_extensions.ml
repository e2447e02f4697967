(* Tests for the extension layer: delay analysis and the delay-aware game,
   the heterogeneous-frame channel model and the payload game / rate
   anomaly, CSV export, the grim-trigger strategy, and the simulator
   extensions (retry limits, carrier-sense range). *)

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Prelude.Util.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let default = Dcf.Params.default

(* {1 Dcf.Delay} *)

let test_backoff_slots_no_collisions () =
  (* p = 0: only stage 0 is visited, mean counter (W−1)/2. *)
  check_close "W=32" 15.5 (Dcf.Delay.expected_backoff_slots ~w:32 ~m:5 ~p:0.);
  check_close "W=1 never waits" 0. (Dcf.Delay.expected_backoff_slots ~w:1 ~m:5 ~p:0.)

let test_backoff_slots_grow_with_p =
  QCheck.Test.make ~name:"expected backoff increasing in p" ~count:200
    QCheck.(triple (int_range 1 512) (int_range 0 7)
              (pair (float_bound_inclusive 0.98) (float_bound_inclusive 0.98)))
    (fun (w, m, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      QCheck.assume (hi > lo);
      Dcf.Delay.expected_backoff_slots ~w ~m ~p:lo
      <= Dcf.Delay.expected_backoff_slots ~w ~m ~p:hi +. 1e-9)

let test_backoff_slots_hand_computed () =
  (* w=2, m=1, p=1/2: stage 0 mean (2−1)/2 = 0.5; stage 1 reached w.p. 1/2
     and repeats geometrically: p^1/(1−p)·(4−1)/2 = 1·1.5 = 1.5. *)
  check_close "w=2 m=1 p=0.5" 2.0
    (Dcf.Delay.expected_backoff_slots ~w:2 ~m:1 ~p:0.5)

let test_delay_of_profile () =
  let cws = [| 32; 128 |] in
  let s = Dcf.Solver.solve_profile default cws in
  let views = Dcf.Delay.of_profile default ~taus:s.taus ~ps:s.ps ~cws in
  (* The aggressive node delivers more often, so it waits less. *)
  Alcotest.(check bool) "smaller window, shorter delay" true
    (views.(0).mean_delay < views.(1).mean_delay);
  Array.iteri
    (fun i (v : Dcf.Delay.t) ->
      check_close "attempts = 1/(1-p)" (1. /. (1. -. s.ps.(i)))
        v.attempts_per_packet)
    views

let test_delay_renewal_identity () =
  (* mean_delay · per-node success rate = 1: deliveries are a renewal
     process at rate tau(1−p)/Tslot. *)
  let n = 8 and w = 128 in
  let tau, p = Dcf.Solver.solve_homogeneous default ~n ~w in
  let metrics = Dcf.Metrics.of_taus default (Array.make n tau) in
  let v =
    Dcf.Delay.of_node ~slot_time:metrics.slot_time ~tau ~p ~w
      ~m:default.max_backoff_stage
  in
  check_close ~eps:1e-9 "renewal identity" 1.
    (v.mean_delay *. tau *. (1. -. p) /. metrics.slot_time)

let test_delay_matches_simulation () =
  (* Measured mean inter-delivery time vs the analytic mean delay. *)
  let n = 5 and w = 79 in
  let r =
    Netsim.Slotted.run
      { params = default; cws = Array.make n w; duration = 120.; seed = 11 }
  in
  let tau, p = Dcf.Solver.solve_homogeneous default ~n ~w in
  let metrics = Dcf.Metrics.of_taus default (Array.make n tau) in
  let predicted =
    (Dcf.Delay.of_node ~slot_time:metrics.slot_time ~tau ~p ~w
       ~m:default.max_backoff_stage)
      .mean_delay
  in
  let measured = r.time /. float_of_int r.per_node.(0).successes in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.4f vs predicted %.4f" measured predicted)
    true
    (Float.abs (measured -. predicted) /. predicted < 0.1)

let test_drop_probability () =
  check_close "no collisions, no drops" 0.
    (Dcf.Delay.drop_probability ~p:0. ~retry_limit:4);
  check_close "p=0.5 R=1" 0.25 (Dcf.Delay.drop_probability ~p:0.5 ~retry_limit:1);
  check_close "R=0 drops on first collision" 0.3
    (Dcf.Delay.drop_probability ~p:0.3 ~retry_limit:0)

let test_delay_validation () =
  Alcotest.check_raises "p=1 is infinite delay"
    (Invalid_argument "Delay.of_node: node never succeeds (p = 1 or tau = 0)")
    (fun () -> ignore (Dcf.Delay.of_node ~slot_time:1e-3 ~tau:0.1 ~p:1. ~w:8 ~m:5))

(* {1 Macgame.Delay_game} *)

let test_delay_game_gamma_zero_recovers_paper () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "n=%d" n)
        (Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n)
        (Macgame.Delay_game.efficient_cw (Macgame.Oracle.analytic default) ~gamma:0. ~n))
    [ 5; 20 ]

let test_delay_game_payoff_decreases_with_gamma =
  QCheck.Test.make ~name:"delay pricing never raises the payoff" ~count:50
    QCheck.(pair (int_range 2 15) (int_range 8 512))
    (fun (n, w) ->
      let u0 = Macgame.Delay_game.payoff (Macgame.Oracle.analytic default) ~gamma:0. ~n ~w in
      let u1 = Macgame.Delay_game.payoff (Macgame.Oracle.analytic default) ~gamma:10. ~n ~w in
      u1 <= u0 +. 1e-12)

let test_delay_game_moderate_gamma_moves_toward_throughput_peak () =
  (* The documented finding: moderate delay pricing nudges the NE upward
     (toward the throughput-optimal window). *)
  let n = 20 in
  let w0 = Macgame.Delay_game.efficient_cw (Macgame.Oracle.analytic default) ~gamma:0. ~n in
  let w100 = Macgame.Delay_game.efficient_cw (Macgame.Oracle.analytic default) ~gamma:100. ~n in
  Alcotest.(check bool)
    (Printf.sprintf "W(0)=%d <= W(100)=%d" w0 w100)
    true (w0 <= w100)

let test_delay_game_tradeoff_shape () =
  let points =
    Macgame.Delay_game.tradeoff (Macgame.Oracle.analytic default) ~n:10 ~gammas:[| 0.; 10.; 100. |]
  in
  Alcotest.(check int) "one point per gamma" 3 (Array.length points);
  Array.iter
    (fun (p : Macgame.Delay_game.tradeoff_point) ->
      Alcotest.(check bool) "delay positive and finite" true
        (p.delay > 0. && Float.is_finite p.delay);
      Alcotest.(check bool) "throughput in (0,1)" true
        (p.throughput > 0. && p.throughput < 1.))
    points

let test_delay_game_validation () =
  Alcotest.check_raises "negative gamma"
    (Invalid_argument "Delay_game: gamma must be >= 0") (fun () ->
      ignore (Macgame.Delay_game.payoff (Macgame.Oracle.analytic default) ~gamma:(-1.) ~n:5 ~w:8))

(* {1 Dcf.Hetero} *)

let test_hetero_matches_metrics_when_homogeneous =
  QCheck.Test.make ~name:"hetero model = homogeneous metrics on equal frames"
    ~count:50
    QCheck.(pair (int_range 1 10) (int_range 2 512))
    (fun (n, w) ->
      let tau, _ = Dcf.Solver.solve_homogeneous default ~n ~w in
      let taus = Array.make n tau in
      let timing = Dcf.Timing.of_params default in
      let hetero =
        Dcf.Hetero.of_profile ~sigma:default.sigma ~taus
          ~ts:(Array.make n timing.ts) ~tc:(Array.make n timing.tc)
          ~payload_time:(Array.make n timing.payload)
      in
      let metrics = Dcf.Metrics.of_taus default taus in
      Prelude.Util.approx_equal ~eps:1e-9 metrics.slot_time hetero.slot_time
      && Prelude.Util.approx_equal ~eps:1e-9 metrics.p_tr hetero.p_tr
      && Prelude.Util.approx_equal ~eps:1e-9
           (Array.fold_left ( +. ) 0. metrics.per_node_throughput)
           (Array.fold_left ( +. ) 0. hetero.per_node_goodput))

let test_hetero_collision_time_montecarlo () =
  (* Exact expectation vs Monte-Carlo for a small asymmetric profile. *)
  let taus = [| 0.3; 0.2; 0.1 |] in
  let tc = [| 1.; 2.; 4. |] in
  let hetero =
    Dcf.Hetero.of_profile ~sigma:1. ~taus ~ts:tc ~tc
      ~payload_time:(Array.make 3 1.)
  in
  let rng = Prelude.Rng.create 3 in
  let total = ref 0. in
  let samples = 200_000 in
  for _ = 1 to samples do
    let s =
      Array.to_list (Array.mapi (fun i t -> (i, Prelude.Rng.bernoulli rng t)) taus)
      |> List.filter_map (fun (i, on) -> if on then Some i else None)
    in
    match s with
    | _ :: _ :: _ ->
        total :=
          !total +. List.fold_left (fun acc i -> Float.max acc tc.(i)) 0. s
    | _ -> ()
  done;
  check_close ~eps:0.02 "collision-time expectation"
    (!total /. float_of_int samples)
    hetero.expected_collision_time

let test_hetero_longer_frames_longer_slots =
  QCheck.Test.make ~name:"inflating one node's frames inflates the slot time"
    ~count:50
    QCheck.(pair (int_range 2 8) (float_range 1.1 4.))
    (fun (n, factor) ->
      let tau, _ = Dcf.Solver.solve_homogeneous default ~n ~w:64 in
      let taus = Array.make n tau in
      let timing = Dcf.Timing.of_params default in
      let base_ts = Array.make n timing.ts and base_tc = Array.make n timing.tc in
      let hetero0 =
        Dcf.Hetero.of_profile ~sigma:default.sigma ~taus ~ts:base_ts ~tc:base_tc
          ~payload_time:(Array.make n timing.payload)
      in
      let ts = Array.copy base_ts and tc = Array.copy base_tc in
      ts.(0) <- ts.(0) *. factor;
      tc.(0) <- tc.(0) *. factor;
      let hetero1 =
        Dcf.Hetero.of_profile ~sigma:default.sigma ~taus ~ts ~tc
          ~payload_time:(Array.make n timing.payload)
      in
      hetero1.slot_time > hetero0.slot_time)

let test_hetero_node_timing_matches_timing_module () =
  let ts, tc, payload =
    Dcf.Hetero.node_timing default ~payload_bits:default.payload_bits
      ~bit_rate:default.bit_rate
  in
  let timing = Dcf.Timing.of_params default in
  check_close "ts" timing.ts ts;
  check_close "tc" timing.tc tc;
  check_close "payload" timing.payload payload

let test_hetero_validation () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Hetero.of_profile: length mismatch") (fun () ->
      ignore
        (Dcf.Hetero.of_profile ~sigma:1. ~taus:[| 0.1 |] ~ts:[||] ~tc:[| 1. |]
           ~payload_time:[| 1. |]))

(* {1 Macgame.Payload_game} *)

let payload_cfg gamma =
  { Macgame.Payload_game.oracle = Macgame.Oracle.analytic default; w = 128; l_min = 512; l_max = 16384; gamma }

let test_payload_utilities_shape () =
  let cfg = payload_cfg 0. in
  let us = Macgame.Payload_game.utilities cfg [| 1024; 8184; 16384 |] in
  (* Bigger payload, bigger payoff (same success rate, more bits). *)
  Alcotest.(check bool) "monotone in own payload" true
    (us.(0) < us.(1) && us.(1) < us.(2))

let test_payload_best_response_is_lmax_when_throughput_only () =
  let cfg = payload_cfg 0. in
  let payloads = Array.make 5 8184 in
  Alcotest.(check int) "header amortisation wins" 16384
    (Macgame.Payload_game.best_response cfg ~payloads ~i:2)

let test_payload_tragedy_of_commons () =
  (* With delay priced, the NE stays at l_max but the social optimum is
     interior: a strict price of anarchy. *)
  let cfg = payload_cfg 50. in
  let n = 6 in
  let final, _, converged =
    Macgame.Payload_game.best_response_dynamics cfg (Array.make n 8184)
  in
  Alcotest.(check bool) "dynamics converge" true converged;
  Alcotest.(check bool) "NE at the top" true (Array.for_all (fun l -> l = 16384) final);
  let opt = Macgame.Payload_game.symmetric_optimum cfg ~n in
  Alcotest.(check bool)
    (Printf.sprintf "social optimum %d interior" opt)
    true
    (opt < 16384);
  let welfare payloads =
    Prelude.Util.sum_floats (Macgame.Payload_game.utilities cfg payloads)
  in
  Alcotest.(check bool) "strict welfare gap" true
    (welfare (Array.make n opt) > welfare final *. 1.01)

let test_payload_validation () =
  let cfg = payload_cfg 0. in
  Alcotest.check_raises "payload out of range"
    (Invalid_argument "Payload_game.utilities: payload out of range") (fun () ->
      ignore (Macgame.Payload_game.utilities cfg [| 100 |]));
  Alcotest.check_raises "bad bounds"
    (Invalid_argument "Payload_game: need 1 <= l_min <= l_max") (fun () ->
      ignore
        (Macgame.Payload_game.utilities
           { cfg with l_min = 10; l_max = 5 }
           [| 8 |]))

let test_rate_anomaly_symmetric () =
  let a =
    Macgame.Payload_game.rate_anomaly (Macgame.Oracle.analytic default) ~w:128
      ~rates:(Array.make 5 default.bit_rate)
  in
  Alcotest.(check bool) "equal rates, equal goodput" true
    (Prelude.Stats.jain_fairness a.throughputs > 0.999);
  check_close ~eps:1e-9 "airtime shares sum to 1" 1.
    (Prelude.Util.sum_floats a.airtime_shares)

let test_rate_anomaly_slow_node_drags () =
  let base = default.bit_rate in
  let rates = Array.init 5 (fun i -> if i = 0 then base /. 10. else base) in
  let a = Macgame.Payload_game.rate_anomaly (Macgame.Oracle.analytic default) ~w:128 ~rates in
  let fair =
    (Macgame.Payload_game.rate_anomaly (Macgame.Oracle.analytic default) ~w:128
       ~rates:(Array.make 5 base))
      .throughputs.(1)
  in
  Alcotest.(check bool) "fast nodes dragged down" true (a.throughputs.(1) < fair /. 1.5);
  Alcotest.(check bool) "slow node hogs airtime" true
    (a.airtime_shares.(0) > 2. /. float_of_int 5)

(* {1 Prelude.Csv} *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Prelude.Csv.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Prelude.Csv.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Prelude.Csv.escape_field "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Prelude.Csv.escape_field "a\nb")

let test_csv_to_string () =
  let out =
    Prelude.Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4,5" ] ]
  in
  Alcotest.(check string) "rendering" "x,y\n1,2\n3,\"4,5\"\n" out

let test_csv_rejects_ragged_rows () =
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Csv.to_string: row width differs from header") (fun () ->
      ignore (Prelude.Csv.to_string ~header:[ "x" ] [ [ "1"; "2" ] ]))

let test_csv_write_roundtrip () =
  let path = Filename.temp_file "macgame" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Prelude.Csv.write ~path ~header:[ "a" ] (Prelude.Csv.float_rows [ [ 0.5 ] ]);
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file contents" "a\n0.5\n" content)

(* {1 Grim trigger} *)

let decide (s : Macgame.Strategy.t) ~my_window ~observed =
  s.decide { Macgame.Strategy.stage = 1; me = 0; my_window; observed }

let test_grim_tolerates_until_triggered () =
  let s = Macgame.Strategy.grim_trigger ~initial:100 ~beta:0.8 in
  Alcotest.(check int) "small dip tolerated" 100
    (decide s ~my_window:100 ~observed:[ [| 100; 85 |] ]);
  Alcotest.(check int) "big dip triggers" 70
    (decide s ~my_window:100 ~observed:[ [| 100; 70 |] ])

let test_grim_never_forgives () =
  let s = Macgame.Strategy.grim_trigger ~initial:100 ~beta:0.8 in
  let _ = decide s ~my_window:100 ~observed:[ [| 100; 10 |] ] in
  (* Everyone is back at 100, but grim stays at the harshest window seen. *)
  Alcotest.(check int) "still punishing" 10
    (decide s ~my_window:10 ~observed:[ [| 100; 100 |] ])

let test_grim_in_game_matches_tft_without_noise () =
  let n = 4 in
  let strategies =
    Array.init n (fun _ -> Macgame.Strategy.grim_trigger ~initial:64 ~beta:0.8)
  in
  let outcome =
    Macgame.Repeated.run (Macgame.Oracle.analytic default) ~strategies ~stages:5
      ~payoffs:(fun p -> Array.map (fun _ -> 0.) p)
  in
  Alcotest.(check (option int)) "stable at the initial window" (Some 64)
    (Macgame.Repeated.converged_window outcome)

(* {1 Simulator extensions} *)

let test_slotted_retry_limit_drops () =
  let n = 20 and w = 64 in
  let r =
    Netsim.Slotted.run ~retry_limit:2
      { params = default; cws = Array.make n w; duration = 120.; seed = 7 }
  in
  let drops =
    Array.fold_left (fun acc (s : Netsim.Slotted.node_stats) -> acc + s.drops) 0 r.per_node
  in
  let packets =
    Array.fold_left
      (fun acc (s : Netsim.Slotted.node_stats) -> acc + s.successes + s.drops)
      0 r.per_node
  in
  Alcotest.(check bool) "some drops under contention" true (drops > 0);
  let rate = float_of_int drops /. float_of_int packets in
  let _, p = Dcf.Solver.solve_homogeneous default ~n ~w in
  let predicted = Dcf.Delay.drop_probability ~p ~retry_limit:2 in
  (* The i.i.d. approximation undershoots; allow a factor-2 band. *)
  Alcotest.(check bool)
    (Printf.sprintf "drop rate %.4f within 2x of %.4f" rate predicted)
    true
    (rate > predicted /. 2. && rate < predicted *. 2.5)

let test_slotted_unlimited_retries_never_drop () =
  let r =
    Netsim.Slotted.run
      { params = default; cws = Array.make 10 16; duration = 30.; seed = 3 }
  in
  Array.iter
    (fun (s : Netsim.Slotted.node_stats) ->
      Alcotest.(check int) "no drops by default" 0 s.drops)
    r.per_node

let test_spatial_cs_range_removes_hidden_failures () =
  (* 0-1-2 chain: with carrier sense covering two hops, 0 and 2 defer to
     each other and hidden losses vanish. *)
  let adjacency = [| [ 1 ]; [ 0; 2 ]; [ 1 ] |] in
  let cs_adjacency = [| [ 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] |] in
  let run cs =
    Netsim.Spatial.run ?cs_adjacency:cs
      {
        params = default;
        adjacency;
        cws = [| 32; 32; 32 |];
        duration = 60.;
        seed = 5;
      }
  in
  let base = run None and wide = run (Some cs_adjacency) in
  Alcotest.(check bool) "hidden failures with 1-hop sensing" true
    (base.per_node.(0).hidden_failures > 0);
  Alcotest.(check int) "no hidden failures with 2-hop sensing" 0
    (wide.per_node.(0).hidden_failures + wide.per_node.(2).hidden_failures)

let test_spatial_cs_validation () =
  let adjacency = [| [ 1 ]; [ 0 ] |] in
  Alcotest.check_raises "cs must contain adjacency"
    (Invalid_argument "Spatial.run: cs_adjacency must contain adjacency")
    (fun () ->
      ignore
        (Netsim.Spatial.run
           ~cs_adjacency:[| []; [] |]
           {
             params = default;
             adjacency;
             cws = [| 8; 8 |];
             duration = 1.;
             seed = 0;
           }))

let test_spatial_retry_limit_drops () =
  let adjacency = [| [ 1 ]; [ 0; 2 ]; [ 1 ] |] in
  let r =
    Netsim.Spatial.run ~retry_limit:1
      {
        params = default;
        adjacency;
        cws = [| 16; 16; 16 |];
        duration = 60.;
        seed = 5;
      }
  in
  let drops =
    Array.fold_left (fun acc (s : Netsim.Spatial.node_stats) -> acc + s.drops) 0 r.per_node
  in
  Alcotest.(check bool) "hidden-terminal chain drops packets" true (drops > 0)

(* {1 Numerics.Special} *)

let test_erf_known_values () =
  check_close ~eps:1e-6 "erf(0)" 0. (Numerics.Special.erf 0.);
  check_close ~eps:1e-5 "erf(1)" 0.8427007929 (Numerics.Special.erf 1.);
  check_close ~eps:1e-5 "erf(-1) odd" (-0.8427007929) (Numerics.Special.erf (-1.));
  check_close ~eps:1e-6 "erf(3) near 1" 0.9999779 (Numerics.Special.erf 3.)

let test_normal_cdf () =
  check_close ~eps:1e-6 "median" 0.5 (Numerics.Special.normal_cdf 0.);
  check_close ~eps:1e-5 "one sigma" 0.8413447 (Numerics.Special.normal_cdf 1.);
  check_close ~eps:1e-5 "shifted and scaled" 0.8413447
    (Numerics.Special.normal_cdf ~mean:10. ~stddev:2. 12.)

let test_normal_quantile_roundtrip =
  QCheck.Test.make ~name:"quantile inverts the cdf" ~count:300
    QCheck.(float_range 0.001 0.999)
    (fun p ->
      let x = Numerics.Special.normal_quantile p in
      Prelude.Util.approx_equal ~eps:1e-5 p (Numerics.Special.normal_cdf x))

let test_normal_quantile_validation () =
  Alcotest.check_raises "p=0"
    (Invalid_argument "Special.normal_quantile: p must be in (0, 1)") (fun () ->
      ignore (Numerics.Special.normal_quantile 0.))

(* {1 Macgame.Detection} *)

let test_detection_fp_decreases_with_samples =
  QCheck.Test.make ~name:"false positives shrink with more samples" ~count:100
    QCheck.(pair (int_range 2 1024) (int_range 1 256))
    (fun (w_exp, samples) ->
      let fp k = Macgame.Detection.false_positive_rate ~w_exp ~samples:k ~beta:0.8 in
      fp (4 * samples) <= fp samples +. 1e-9)

let test_detection_rate_increases_as_cheat_deepens =
  QCheck.Test.make ~name:"deeper cheats are easier to catch" ~count:100
    QCheck.(int_range 16 1024)
    (fun w_exp ->
      let det w_true =
        Macgame.Detection.detection_rate ~w_true ~w_exp ~samples:16 ~beta:0.8
      in
      det (Stdlib.max 1 (w_exp / 4)) >= det (Stdlib.max 1 (w_exp / 2)) -. 1e-9)

let test_detection_matches_montecarlo () =
  let rng = Prelude.Rng.create 17 in
  List.iter
    (fun (w_true, w_exp, samples, beta) ->
      let predicted =
        Macgame.Detection.detection_rate ~w_true ~w_exp ~samples ~beta
      in
      let measured =
        Macgame.Detection.empirical_rates ~rng ~trials:20_000 ~w_true ~w_exp
          ~samples ~beta
      in
      if Float.abs (predicted -. measured) > 0.02 then
        Alcotest.failf "(%d,%d,%d,%.2f): predicted %.4f, measured %.4f" w_true
          w_exp samples beta predicted measured)
    [ (166, 166, 16, 0.8); (83, 166, 16, 0.8); (120, 166, 64, 0.9); (166, 166, 4, 0.9) ]

let test_required_samples_is_tight () =
  let w_exp = 166 and beta = 0.85 and max_fp = 0.05 in
  let k = Macgame.Detection.required_samples ~w_exp ~beta ~max_fp in
  Alcotest.(check bool) "meets the budget" true
    (Macgame.Detection.false_positive_rate ~w_exp ~samples:k ~beta <= max_fp);
  Alcotest.(check bool) "one fewer sample misses it" true
    (k = 1
    || Macgame.Detection.false_positive_rate ~w_exp ~samples:(k - 1) ~beta > max_fp)

let test_design_gtft_feasible () =
  match
    Macgame.Detection.design_gtft ~w_exp:166 ~cheat_factor:0.5 ~per_stage:25
      ~max_fp:0.1 ~min_detection:0.95
  with
  | None -> Alcotest.fail "expected a feasible design"
  | Some d ->
      Alcotest.(check bool) "budgets met" true
        (d.false_positive <= 0.1 +. 1e-9 && d.detection >= 0.95);
      Alcotest.(check bool) "beta separates cheat from honest" true
        (d.beta > 0.5 && d.beta < 1.);
      Alcotest.(check bool) "r0 bounded" true (d.r0 >= 1 && d.r0 <= 64)

let test_design_gtft_infeasible () =
  (* An essentially honest "cheat" (0.99 of the window) cannot be separated
     from noise. *)
  Alcotest.(check bool) "no design for undetectable cheats" true
    (Macgame.Detection.design_gtft ~w_exp:166 ~cheat_factor:0.99 ~per_stage:1
       ~max_fp:0.001 ~min_detection:0.999
    = None)

let test_detection_validation () =
  Alcotest.check_raises "bad beta"
    (Invalid_argument "Detection: beta must be in (0, 1]") (fun () ->
      ignore (Macgame.Detection.false_positive_rate ~w_exp:10 ~samples:4 ~beta:1.5))

(* {1 Solver.solve_classes and coalitions} *)

let test_solve_classes_matches_full_solve =
  QCheck.Test.make ~name:"class solver matches the vector solver" ~count:30
    QCheck.(triple (int_range 1 6) (int_range 1 6) (pair (int_range 1 256) (int_range 1 256)))
    (fun (k1, k2, (w1, w2)) ->
      let classes = Dcf.Solver.solve_classes default [ (w1, k1); (w2, k2) ] in
      let cws = Array.append (Array.make k1 w1) (Array.make k2 w2) in
      let s = Dcf.Solver.solve_profile default cws in
      let certificate =
        Conformance.Solver_core.certify default
          [
            (Dcf.Strategy_space.of_cw w1, k1);
            (Dcf.Strategy_space.of_cw w2, k2);
          ]
          classes
      in
      certificate.margin <= 1.
      &&
      match classes.class_pairs with
      | [ (tau1, p1); (tau2, p2) ] ->
          Prelude.Util.approx_equal ~eps:1e-6 tau1 s.taus.(0)
          && Prelude.Util.approx_equal ~eps:1e-6 p1 s.ps.(0)
          && Prelude.Util.approx_equal ~eps:1e-6 tau2 s.taus.(k1)
          && Prelude.Util.approx_equal ~eps:1e-6 p2 s.ps.(k1)
      | _ -> false)

let test_solve_classes_single_class_is_homogeneous () =
  let tau, p = Dcf.Solver.solve_homogeneous default ~n:7 ~w:64 in
  match (Dcf.Solver.solve_classes default [ (64, 7) ]).class_pairs with
  | [ (tau', p') ] ->
      check_close ~eps:1e-9 "tau" tau tau';
      check_close ~eps:1e-9 "p" p p'
  | _ -> Alcotest.fail "expected one class"

let test_coalition_k1_matches_single_deviant () =
  let n = 8 and w_star = 200 and w_dev = 100 in
  let c = Macgame.Deviation.coalition_stage_payoffs (Macgame.Oracle.analytic default) ~n ~w_star ~k:1 ~w_dev in
  let s = Macgame.Deviation.stage_payoffs (Macgame.Oracle.analytic default) ~n ~w_star ~w_dev in
  check_close ~eps:1e-6 "member = deviant" s.deviant c.member;
  check_close ~eps:1e-6 "outsider = conformer" s.conformer c.outsider;
  check_close ~eps:1e-6 "punished" s.uniform_w c.punished;
  check_close ~eps:1e-6 "honest" s.uniform_star c.honest

let test_coalition_gain_shrinks_with_size () =
  let n = 10 in
  let w_star = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n in
  let gain k =
    Macgame.Deviation.coalition_gain (Macgame.Oracle.analytic default) ~n ~w_star ~k ~w_dev:(w_star / 2)
      ~delta_s:0.9 ~react_stages:1
  in
  Alcotest.(check bool) "free ride dilutes" true (gain 1 > gain 3 && gain 3 > gain 6)

let test_coalition_unprofitable_when_patient =
  QCheck.Test.make ~name:"no coalition pays at the paper's delta" ~count:20
    QCheck.(pair (int_range 1 9) (int_range 1 9))
    (fun (k, denom) ->
      let n = 10 in
      let w_star = Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic default) ~n in
      let w_dev = Stdlib.max 1 (w_star * denom / 10) in
      QCheck.assume (w_dev < w_star);
      Macgame.Deviation.coalition_gain (Macgame.Oracle.analytic default) ~n ~w_star ~k ~w_dev
        ~delta_s:0.9999 ~react_stages:1
      < 0.)

let test_coalition_validation () =
  Alcotest.check_raises "k = n"
    (Invalid_argument "Deviation.coalition_stage_payoffs: need 1 <= k < n")
    (fun () ->
      ignore
        (Macgame.Deviation.coalition_stage_payoffs (Macgame.Oracle.analytic default) ~n:5 ~w_star:100 ~k:5
           ~w_dev:50))

(* {1 Netsim.Unsaturated} *)

let unsat ?(duration = 100.) ?(seed = 5) ~n ~w ~rate () =
  Netsim.Unsaturated.run
    {
      params = default;
      cws = Array.make n w;
      arrival_rates = Array.make n rate;
      duration;
      seed;
    }

let test_unsaturated_light_load_delivers_everything () =
  let r = unsat ~n:5 ~w:79 ~rate:1.0 () in
  Array.iter
    (fun (s : Netsim.Unsaturated.node_stats) ->
      Alcotest.(check bool) "no backlog" true (s.backlog <= 2);
      Alcotest.(check bool) "tiny queues" true (s.mean_queue_length < 0.2))
    r.per_node;
  let offered =
    Array.fold_left
      (fun acc (s : Netsim.Unsaturated.node_stats) -> acc + s.arrivals)
      0 r.per_node
  in
  Alcotest.(check bool) "delivered nearly all" true
    (r.total_delivered >= offered - 10)

let test_unsaturated_zero_rate_is_silent () =
  let r = unsat ~n:3 ~w:32 ~rate:0. () in
  Alcotest.(check int) "nothing delivered" 0 r.total_delivered;
  Array.iter
    (fun (s : Netsim.Unsaturated.node_stats) ->
      Alcotest.(check int) "nothing arrived" 0 s.arrivals)
    r.per_node

let test_unsaturated_light_load_sojourn_close_to_service_time () =
  (* Alone on the channel at trivial load, the sojourn is one backoff plus
     one transmission. *)
  let r = unsat ~n:1 ~w:32 ~rate:0.5 ~duration:400. () in
  let timing = Dcf.Timing.of_params default in
  let expected = (15.5 *. default.sigma) +. timing.ts in
  let measured = r.per_node.(0).mean_sojourn in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.4f vs %.4f" measured expected)
    true
    (Float.abs (measured -. expected) /. expected < 0.15)

let test_unsaturated_overload_behaves_like_saturation () =
  (* Offered load far above capacity: the departure rate should approach
     the saturated simulator's. *)
  let n = 5 and w = 79 in
  let r = unsat ~n ~w ~rate:100. ~duration:60. () in
  let saturated =
    Netsim.Slotted.run
      { params = default; cws = Array.make n w; duration = 60.; seed = 5 }
  in
  let unsat_rate = float_of_int r.total_delivered /. r.time in
  let sat_rate =
    float_of_int
      (Array.fold_left
         (fun acc (s : Netsim.Slotted.node_stats) -> acc + s.successes)
         0 saturated.per_node)
    /. saturated.time
  in
  Alcotest.(check bool)
    (Printf.sprintf "unsat %.2f vs sat %.2f pkt/s" unsat_rate sat_rate)
    true
    (Float.abs (unsat_rate -. sat_rate) /. sat_rate < 0.05);
  Array.iter
    (fun (s : Netsim.Unsaturated.node_stats) ->
      Alcotest.(check bool) "always busy" true (s.busy_fraction > 0.99))
    r.per_node

let test_unsaturated_sojourn_grows_with_load =
  QCheck.Test.make ~name:"sojourn increasing in offered load" ~count:10
    QCheck.(int_range 1 4)
    (fun i ->
      let rate = float_of_int i in
      let at r = (unsat ~n:5 ~w:79 ~rate:r ~duration:100. ()).per_node.(0).mean_sojourn in
      at rate <= at (rate +. 2.) +. 1e-3)

let test_unsaturated_capacity () =
  let cap = Netsim.Unsaturated.saturation_rate default ~n:10 ~w:166 in
  Alcotest.(check bool) "positive capacity" true (cap > 0.);
  (* The measured saturated departure rate should match the analytic one. *)
  let r =
    Netsim.Slotted.run
      { params = default; cws = Array.make 10 166; duration = 120.; seed = 2 }
  in
  let measured =
    float_of_int r.per_node.(0).successes /. r.time
  in
  Alcotest.(check bool)
    (Printf.sprintf "capacity %.3f vs measured %.3f" cap measured)
    true
    (Float.abs (cap -. measured) /. cap < 0.1)

let test_slotted_per_degrades_welfare () =
  let run per =
    (Netsim.Slotted.run ~per
       { params = default; cws = Array.make 5 79; duration = 60.; seed = 9 })
      .welfare_rate
  in
  let w0 = run 0. and w2 = run 0.2 and w5 = run 0.5 in
  Alcotest.(check bool) "monotone degradation" true (w0 > w2 && w2 > w5)

let test_slotted_per_matches_p_hn_model () =
  (* Channel noise at rate per is the p_hn = 1 − per factor of Sec. VI.A,
     up to the backoff escalation noise losses also trigger in the
     simulator. *)
  let per = 0.2 in
  let n = 5 and w = 150 in
  let r =
    Netsim.Slotted.run ~per
      { params = default; cws = Array.make n w; duration = 120.; seed = 4 }
  in
  let tau, p = Dcf.Solver.solve_homogeneous default ~n ~w in
  let predicted =
    (Dcf.Utility.rates ~p_hn:(1. -. per) default ~taus:(Array.make n tau)
       ~ps:(Array.make n p)).(0)
  in
  let measured =
    Prelude.Stats.mean_of
      (Array.map (fun (s : Netsim.Slotted.node_stats) -> s.payoff_rate) r.per_node)
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f vs p_hn model %.3f" measured predicted)
    true
    (Float.abs (measured -. predicted) /. predicted < 0.12)

let test_slotted_per_validation () =
  Alcotest.check_raises "per = 1" (Invalid_argument "Slotted.run: per must be in [0, 1)")
    (fun () ->
      ignore
        (Netsim.Slotted.run ~per:1.
           { params = default; cws = [| 8 |]; duration = 1.; seed = 0 }))

let test_unsaturated_validation () =
  let run ?(duration = 1.) rate =
    ignore
      (Netsim.Unsaturated.run
         {
           params = default;
           cws = [| 8 |];
           arrival_rates = [| rate |];
           duration;
           seed = 0;
         })
  in
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Slotted.run: negative arrival rate") (fun () ->
      run (-1.));
  (* A NaN rate used to loop forever, an infinite one to grow its queue
     until the heap ran out, and a NaN duration to return NaN stats. *)
  List.iter
    (fun rate ->
      Alcotest.check_raises
        (Printf.sprintf "rate %h" rate)
        (Invalid_argument "Slotted.run: arrival rate must be finite")
        (fun () -> run rate))
    [ nan; infinity ];
  Alcotest.check_raises "nan duration"
    (Invalid_argument "Slotted.run: duration must be positive") (fun () ->
      run ~duration:nan 1.);
  Alcotest.check_raises "infinite duration"
    (Invalid_argument "Slotted.run: duration must be finite") (fun () ->
      run ~duration:infinity 1.)

(* {1 Poisson traffic through Slotted.run}

   What Poisson runs gain from sharing the saturated engine: retry
   limits, channel noise, AIFS strategies, airtime accounting, recorder
   instants and the run summary. *)

(* [load] times the per-node saturation rate on [n] nodes of window [w]. *)
let poisson ?retry_limit ?per ?strategies ?(duration = 20.) ~n ~w ~load () =
  let rate = load *. Netsim.Unsaturated.saturation_rate default ~n ~w in
  Netsim.Slotted.run
    ~telemetry:(Telemetry.Registry.create ())
    ?retry_limit ?per ?strategies
    ~arrival_rates:(Array.make n rate)
    { params = default; cws = Array.make n w; duration; seed = 11 }

let total_of f (r : Netsim.Slotted.result) =
  Array.fold_left (fun acc s -> acc + f s) 0 r.per_node

let check_airtime_balance (r : Netsim.Slotted.result) =
  let a = r.airtime in
  Alcotest.(check (float 1e-9)) "airtime fractions sum to 1" 1.
    (a.idle_fraction +. a.success_fraction +. a.collision_fraction
   +. a.error_fraction)

(* Every packet that arrived was delivered, dropped or is still queued. *)
let check_packets_conserved (r : Netsim.Slotted.result) =
  Array.iteri
    (fun i (s : Netsim.Slotted.node_stats) ->
      match s.queue with
      | None -> Alcotest.fail "a Poisson run without queue statistics"
      | Some q ->
          Alcotest.(check int)
            (Printf.sprintf "node %d: arrivals = delivered + drops + backlog"
               i)
            q.arrivals
            (s.successes + s.drops + q.backlog))
    r.per_node

let test_poisson_retry_limit_drops () =
  let r = poisson ~retry_limit:0 ~n:10 ~w:128 ~load:1.5 () in
  let drops = total_of (fun (s : Netsim.Slotted.node_stats) -> s.drops) r in
  Alcotest.(check bool) (Printf.sprintf "%d drops" drops) true (drops > 0);
  check_packets_conserved r;
  check_airtime_balance r

let test_poisson_channel_noise () =
  let r = poisson ~per:0.2 ~retry_limit:2 ~n:10 ~w:128 ~load:0.8 () in
  Alcotest.(check bool)
    (Printf.sprintf "error fraction %.3f" r.airtime.error_fraction)
    true
    (r.airtime.error_fraction > 0.);
  check_packets_conserved r;
  check_airtime_balance r

let test_poisson_aifs_costs_deliveries () =
  (* Above saturation, the node that defers three extra slots after every
     busy period wins fewer accesses than its nine AIFS-0 peers. *)
  let n = 10 and w = 128 in
  let strategies =
    Array.init n (fun i ->
        { (Dcf.Strategy_space.of_cw w) with aifs = (if i = 0 then 3 else 0) })
  in
  let r = poisson ~strategies ~n ~w ~load:1.5 () in
  let peers =
    float_of_int
      (total_of (fun (s : Netsim.Slotted.node_stats) -> s.successes) r
      - r.per_node.(0).successes)
    /. float_of_int (n - 1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "AIFS 3 delivers %d, AIFS 0 peers %.1f on average"
       r.per_node.(0).successes peers)
    true
    (float_of_int r.per_node.(0).successes < peers);
  check_packets_conserved r;
  check_airtime_balance r

let test_poisson_refusals () =
  let config =
    { Netsim.Slotted.params = default; cws = [| 8; 8 |]; duration = 1.; seed = 0 }
  in
  let arrival_rates = [| 1.; 1. |] in
  let refused name msg f =
    Alcotest.check_raises name (Invalid_argument ("Slotted.run: " ^ msg))
      (fun () -> ignore (f ()))
  in
  refused "TXOP burst" "txop_frames > 1 needs saturated traffic" (fun () ->
      Netsim.Slotted.run ~arrival_rates
        ~strategies:
          [|
            { (Dcf.Strategy_space.of_cw 8) with txop_frames = 2 };
            Dcf.Strategy_space.of_cw 8;
          |]
        config);
  refused "chain ticks" "bianchi_ticks needs saturated traffic" (fun () ->
      Netsim.Slotted.run ~arrival_rates ~bianchi_ticks:true config);
  refused "length" "arrival_rates length mismatch" (fun () ->
      Netsim.Slotted.run ~arrival_rates:[| 1. |] config);
  (* Every rate 0: no contention slot passes, and the estimates read 0,
     not NaN. *)
  let registry = Telemetry.Registry.create () in
  let sink, events = Telemetry.Sink.memory () in
  Telemetry.Registry.add_sink registry sink;
  let silent =
    Netsim.Slotted.run ~telemetry:registry ~arrival_rates:[| 0.; 0. |] config
  in
  Alcotest.(check int) "no contention slot" 0 silent.slots;
  Array.iter
    (fun (s : Netsim.Slotted.node_stats) ->
      Alcotest.(check (float 0.)) "tau_hat" 0. s.tau_hat;
      Alcotest.(check (float 0.)) "p_hat" 0. s.p_hat)
    silent.per_node;
  Alcotest.(check (float 0.)) "all idle" 1. silent.airtime.idle_fraction;
  (* Only a Poisson run's summary names its traffic. *)
  ignore (Netsim.Slotted.run ~telemetry:registry config);
  match
    List.map (fun e -> Telemetry.Event.field "traffic" e) (events ())
  with
  | [ Some (Telemetry.Jsonx.String "poisson"); None ] -> ()
  | _ -> Alcotest.fail "want traffic=poisson on the Poisson run only"

(* {1 Simulator events in the flight recorder} *)

(* The result of [f ()] and the flight-recorder instants it recorded,
   detail tier on, as (name, a, b) in recorded order.  The ring is sized
   to hold this suite's largest run whole, once and before the first
   record (a ring already in use keeps its size); a run that still wraps
   it fails. *)
let ring_sized =
  lazy (Telemetry.Recorder.set_capacity Telemetry.Recorder.default (1 lsl 17))

let recorded f =
  let r = Telemetry.Recorder.default in
  let registry = Telemetry.Registry.create () in
  Lazy.force ring_sized;
  ignore (Telemetry.Recorder.drain ~registry r);
  Telemetry.Recorder.set_enabled r true;
  Telemetry.Recorder.set_detail r true;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Recorder.set_detail r false;
        Telemetry.Recorder.set_enabled r false)
      f
  in
  let dump = Telemetry.Recorder.drain ~registry r in
  if dump.dropped > 0 then
    Alcotest.failf "the recorder dropped %d records" dump.dropped;
  ( result,
    Array.to_list dump.records
    |> List.filter_map (fun (rc : Telemetry.Recorder.record) ->
           if rc.kind = Telemetry.Recorder.kind_instant then
             Some (dump.names.(rc.name), rc.a, rc.b)
           else None) )

let named name instants = List.filter (fun (m, _, _) -> m = name) instants
let count name instants = List.length (named name instants)

let test_trace_records_simulation_events () =
  let r, instants =
    recorded (fun () ->
        Netsim.Slotted.run
          { params = default; cws = Array.make 5 32; duration = 10.; seed = 6 })
  in
  let successes = named "slotted.success" instants in
  let sim_successes =
    Array.fold_left
      (fun acc (st : Netsim.Slotted.node_stats) -> acc + st.successes)
      0 r.per_node
  in
  Alcotest.(check int) "one event per delivery" sim_successes
    (List.length successes);
  Alcotest.(check bool) "collisions observed at W=32, n=5" true
    (count "slotted.collision" instants > 0);
  Alcotest.(check int) "no drops without a retry limit" 0
    (count "slotted.drop" instants);
  (* Per-node counts agree with the stats. *)
  Array.iteri
    (fun node (st : Netsim.Slotted.node_stats) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d" node)
        st.successes
        (List.length (List.filter (fun (_, _, b) -> b = node) successes)))
    r.per_node

let test_poisson_recorder_instants () =
  let r, instants =
    recorded (fun () ->
        poisson ~retry_limit:1 ~n:5 ~w:32 ~load:1.2 ~duration:5. ())
  in
  let drops = total_of (fun (s : Netsim.Slotted.node_stats) -> s.drops) r in
  Alcotest.(check int) "one success instant per delivered packet"
    (total_of (fun (s : Netsim.Slotted.node_stats) -> s.successes) r)
    (count "slotted.success" instants);
  Alcotest.(check bool) (Printf.sprintf "%d drops" drops) true (drops > 0);
  Alcotest.(check int) "one drop instant per drop" drops
    (count "slotted.drop" instants);
  check_packets_conserved r;
  check_airtime_balance r

let test_trace_events_are_chronological () =
  let (_ : Netsim.Slotted.result), instants =
    recorded (fun () ->
        Netsim.Slotted.run
          { params = default; cws = Array.make 3 16; duration = 5.; seed = 2 })
  in
  let rec sorted = function
    | (_, a, _) :: ((_, b, _) :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "non-decreasing virtual slots" true (sorted instants)

let test_trace_spatial_invariants () =
  (* Record the hidden-terminal chain and check protocol invariants: event
     counts match the stats, and two neighbouring nodes never *both*
     deliver within one frame airtime of each other (the receiver in the
     middle can only serve one at a time). *)
  let adjacency = [| [ 1 ]; [ 0; 2 ]; [ 1 ] |] in
  let r, instants =
    recorded (fun () ->
        Netsim.Spatial.run
          {
            params = default;
            adjacency;
            cws = [| 32; 32; 32 |];
            duration = 30.;
            seed = 8;
          })
  in
  let successes = named "spatial.success" instants in
  Alcotest.(check int) "success events = delivered"
    (r.delivered + r.delivered_late)
    (List.length successes);
  let failures =
    Array.fold_left
      (fun acc (st : Netsim.Spatial.node_stats) ->
        acc + st.local_collisions + st.hidden_failures)
      0 r.per_node
  in
  Alcotest.(check int) "collision events = failures" failures
    (count "spatial.collision" instants);
  let timing = Dcf.Timing.of_params default in
  let successes =
    List.map
      (fun (_, slot, node) -> (float_of_int slot *. default.sigma, node))
      successes
  in
  let rec check_spacing = function
    | (t1, n1) :: ((t2, n2) :: _ as rest) ->
        if n1 <> n2 && t2 -. t1 < timing.ts -. (2. *. default.sigma) then
          Alcotest.failf
            "overlapping deliveries: node %d at %.5f, node %d at %.5f" n1 t1 n2
            t2;
        check_spacing rest
    | _ -> ()
  in
  check_spacing successes

let suite_trace =
  [
    Alcotest.test_case "records simulation events" `Quick test_trace_records_simulation_events;
    Alcotest.test_case "spatial trace invariants" `Quick test_trace_spatial_invariants;
    Alcotest.test_case "chronological" `Quick test_trace_events_are_chronological;
  ]

let suite_classes =
  [
    QCheck_alcotest.to_alcotest test_solve_classes_matches_full_solve;
    Alcotest.test_case "single class" `Quick test_solve_classes_single_class_is_homogeneous;
    Alcotest.test_case "k=1 matches single deviant" `Quick test_coalition_k1_matches_single_deviant;
    Alcotest.test_case "gain shrinks with size" `Quick test_coalition_gain_shrinks_with_size;
    QCheck_alcotest.to_alcotest test_coalition_unprofitable_when_patient;
    Alcotest.test_case "validation" `Quick test_coalition_validation;
  ]

let suite_unsaturated =
  [
    Alcotest.test_case "light load delivers" `Quick test_unsaturated_light_load_delivers_everything;
    Alcotest.test_case "zero rate silent" `Quick test_unsaturated_zero_rate_is_silent;
    Alcotest.test_case "light-load sojourn" `Quick test_unsaturated_light_load_sojourn_close_to_service_time;
    Alcotest.test_case "overload = saturation" `Slow test_unsaturated_overload_behaves_like_saturation;
    QCheck_alcotest.to_alcotest test_unsaturated_sojourn_grows_with_load;
    Alcotest.test_case "capacity" `Slow test_unsaturated_capacity;
    Alcotest.test_case "channel noise degrades welfare" `Quick test_slotted_per_degrades_welfare;
    Alcotest.test_case "channel noise = p_hn factor" `Slow test_slotted_per_matches_p_hn_model;
    Alcotest.test_case "per validation" `Quick test_slotted_per_validation;
    Alcotest.test_case "validation" `Quick test_unsaturated_validation;
    Alcotest.test_case "poisson retry-limit drops" `Quick test_poisson_retry_limit_drops;
    Alcotest.test_case "poisson channel noise" `Quick test_poisson_channel_noise;
    Alcotest.test_case "poisson AIFS costs deliveries" `Quick test_poisson_aifs_costs_deliveries;
    Alcotest.test_case "poisson recorder instants" `Quick test_poisson_recorder_instants;
    Alcotest.test_case "poisson refusals" `Quick test_poisson_refusals;
  ]

let suite_special =
  [
    Alcotest.test_case "erf known values" `Quick test_erf_known_values;
    Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
    QCheck_alcotest.to_alcotest test_normal_quantile_roundtrip;
    Alcotest.test_case "quantile validation" `Quick test_normal_quantile_validation;
  ]

let suite_detection =
  [
    QCheck_alcotest.to_alcotest test_detection_fp_decreases_with_samples;
    QCheck_alcotest.to_alcotest test_detection_rate_increases_as_cheat_deepens;
    Alcotest.test_case "matches monte-carlo" `Slow test_detection_matches_montecarlo;
    Alcotest.test_case "required samples tight" `Quick test_required_samples_is_tight;
    Alcotest.test_case "gtft design feasible" `Quick test_design_gtft_feasible;
    Alcotest.test_case "gtft design infeasible" `Quick test_design_gtft_infeasible;
    Alcotest.test_case "validation" `Quick test_detection_validation;
  ]

let suite_delay =
  [
    Alcotest.test_case "backoff slots at p=0" `Quick test_backoff_slots_no_collisions;
    QCheck_alcotest.to_alcotest test_backoff_slots_grow_with_p;
    Alcotest.test_case "backoff slots hand computed" `Quick test_backoff_slots_hand_computed;
    Alcotest.test_case "of_profile ordering" `Quick test_delay_of_profile;
    Alcotest.test_case "renewal identity" `Quick test_delay_renewal_identity;
    Alcotest.test_case "matches simulation" `Slow test_delay_matches_simulation;
    Alcotest.test_case "drop probability" `Quick test_drop_probability;
    Alcotest.test_case "validation" `Quick test_delay_validation;
  ]

let suite_delay_game =
  [
    Alcotest.test_case "gamma=0 recovers the paper" `Quick test_delay_game_gamma_zero_recovers_paper;
    QCheck_alcotest.to_alcotest test_delay_game_payoff_decreases_with_gamma;
    Alcotest.test_case "moderate gamma raises W" `Quick test_delay_game_moderate_gamma_moves_toward_throughput_peak;
    Alcotest.test_case "tradeoff shape" `Quick test_delay_game_tradeoff_shape;
    Alcotest.test_case "validation" `Quick test_delay_game_validation;
  ]

let suite_hetero =
  [
    QCheck_alcotest.to_alcotest test_hetero_matches_metrics_when_homogeneous;
    Alcotest.test_case "collision time vs monte-carlo" `Slow test_hetero_collision_time_montecarlo;
    QCheck_alcotest.to_alcotest test_hetero_longer_frames_longer_slots;
    Alcotest.test_case "node timing consistency" `Quick test_hetero_node_timing_matches_timing_module;
    Alcotest.test_case "validation" `Quick test_hetero_validation;
  ]

let suite_payload =
  [
    Alcotest.test_case "utilities monotone in payload" `Quick test_payload_utilities_shape;
    Alcotest.test_case "throughput-only BR is l_max" `Quick test_payload_best_response_is_lmax_when_throughput_only;
    Alcotest.test_case "tragedy of the commons" `Slow test_payload_tragedy_of_commons;
    Alcotest.test_case "validation" `Quick test_payload_validation;
    Alcotest.test_case "rate anomaly symmetric" `Quick test_rate_anomaly_symmetric;
    Alcotest.test_case "rate anomaly drags fast nodes" `Quick test_rate_anomaly_slow_node_drags;
  ]

let suite_csv =
  [
    Alcotest.test_case "escaping" `Quick test_csv_escaping;
    Alcotest.test_case "to_string" `Quick test_csv_to_string;
    Alcotest.test_case "ragged rows" `Quick test_csv_rejects_ragged_rows;
    Alcotest.test_case "write roundtrip" `Quick test_csv_write_roundtrip;
  ]

let suite_grim =
  [
    Alcotest.test_case "tolerates until triggered" `Quick test_grim_tolerates_until_triggered;
    Alcotest.test_case "never forgives" `Quick test_grim_never_forgives;
    Alcotest.test_case "stable without noise" `Quick test_grim_in_game_matches_tft_without_noise;
  ]

let suite_sim_ext =
  [
    Alcotest.test_case "slotted retry drops" `Slow test_slotted_retry_limit_drops;
    Alcotest.test_case "unlimited retries never drop" `Quick test_slotted_unlimited_retries_never_drop;
    Alcotest.test_case "cs range removes hidden failures" `Quick test_spatial_cs_range_removes_hidden_failures;
    Alcotest.test_case "cs validation" `Quick test_spatial_cs_validation;
    Alcotest.test_case "spatial retry drops" `Quick test_spatial_retry_limit_drops;
  ]

let () =
  Alcotest.run "extensions"
    [
      ("trace", suite_trace);
      ("classes", suite_classes);
      ("unsaturated", suite_unsaturated);
      ("special", suite_special);
      ("detection", suite_detection);
      ("delay", suite_delay);
      ("delay_game", suite_delay_game);
      ("hetero", suite_hetero);
      ("payload_game", suite_payload);
      ("csv", suite_csv);
      ("grim", suite_grim);
      ("sim_ext", suite_sim_ext);
    ]
