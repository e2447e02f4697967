(* Tests for the packet-level simulators: the single-hop slotted simulator
   (validated against the analytic Bianchi model) and the spatial multi-hop
   simulator (carrier sense, hidden terminals, NAV). *)

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Prelude.Util.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let default = Dcf.Params.default
let rts_cts = Dcf.Params.rts_cts

let slotted ?(params = default) ?(duration = 60.) ?(seed = 42) cws =
  Netsim.Slotted.run { params; cws; duration; seed }

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

let count name instants =
  List.length (List.filter (fun (m, _, _) -> m = name) instants)

(* {1 Slotted simulator} *)

let test_slotted_deterministic () =
  let a = slotted [| 32; 32; 32 |] and b = slotted [| 32; 32; 32 |] in
  Alcotest.(check int) "same slots" a.slots b.slots;
  Array.iteri
    (fun i (s : Netsim.Slotted.node_stats) ->
      Alcotest.(check int) "same attempts" s.attempts b.per_node.(i).attempts;
      Alcotest.(check int) "same successes" s.successes b.per_node.(i).successes)
    a.per_node

let test_slotted_seed_changes_outcome () =
  let a = slotted ~seed:1 [| 32; 32; 32 |] and b = slotted ~seed:2 [| 32; 32; 32 |] in
  Alcotest.(check bool) "different sample paths" true
    (a.per_node.(0).attempts <> b.per_node.(0).attempts
    || a.per_node.(0).successes <> b.per_node.(0).successes)

let test_slotted_accounting_invariants () =
  let r = slotted [| 16; 64; 256 |] in
  Array.iter
    (fun (s : Netsim.Slotted.node_stats) ->
      Alcotest.(check int) "attempts = successes + collisions" s.attempts
        (s.successes + s.collisions);
      Alcotest.(check bool) "tau_hat in [0,1]" true (s.tau_hat >= 0. && s.tau_hat <= 1.);
      Alcotest.(check bool) "p_hat in [0,1]" true (s.p_hat >= 0. && s.p_hat <= 1.))
    r.per_node;
  Alcotest.(check bool) "ran past the requested duration" true (r.time >= 60.);
  Alcotest.(check bool) "throughput below 1" true (r.total_throughput < 1.)

let test_slotted_single_node_never_collides () =
  let r = slotted [| 32 |] in
  Alcotest.(check int) "no collisions alone" 0 r.per_node.(0).collisions;
  (* Alone, every 16th slot on average carries a packet: utilisation is the
     payload share of (mean backoff · sigma + Ts). *)
  let timing = Dcf.Timing.of_params default in
  let expected =
    timing.payload /. ((15.5 *. default.sigma) +. timing.ts)
  in
  check_close ~eps:0.02 "utilisation" expected r.total_throughput

let test_slotted_matches_bianchi_tau_p () =
  (* Under the chain's own tick convention the simulator must agree tightly
     with eq. 2-3; under real freeze semantics the gap is the documented
     accuracy limit of Bianchi's approximation (still below ~10 %). *)
  List.iter
    (fun (n, w) ->
      let v = Dcf.Model.homogeneous default ~n ~w in
      let r =
        Netsim.Slotted.run ~bianchi_ticks:true
          { params = default; cws = Array.make n w; duration = 120.; seed = 42 }
      in
      let taus = Array.map (fun (s : Netsim.Slotted.node_stats) -> s.tau_hat) r.per_node in
      let ps = Array.map (fun (s : Netsim.Slotted.node_stats) -> s.p_hat) r.per_node in
      let tau_hat = Prelude.Stats.mean_of taus and p_hat = Prelude.Stats.mean_of ps in
      if Float.abs (tau_hat -. v.tau) /. v.tau > 0.04 then
        Alcotest.failf "bianchi mode n=%d W=%d: tau %.5f vs %.5f" n w tau_hat v.tau;
      if Float.abs (p_hat -. v.p) > 0.02 then
        Alcotest.failf "bianchi mode n=%d W=%d: p %.4f vs %.4f" n w p_hat v.p;
      let real = slotted ~duration:120. (Array.make n w) in
      let tau_real =
        Prelude.Stats.mean_of
          (Array.map (fun (s : Netsim.Slotted.node_stats) -> s.tau_hat) real.per_node)
      in
      if Float.abs (tau_real -. v.tau) /. v.tau > 0.12 then
        Alcotest.failf "real mode n=%d W=%d: tau %.5f vs %.5f" n w tau_real v.tau)
    [ (2, 64); (5, 79); (10, 128); (20, 339) ]

let test_slotted_matches_analytic_payoff () =
  List.iter
    (fun (n, w) ->
      let v = Dcf.Model.homogeneous default ~n ~w in
      let r = slotted ~duration:120. (Array.make n w) in
      let u_hat =
        Prelude.Stats.mean_of
          (Array.map (fun (s : Netsim.Slotted.node_stats) -> s.payoff_rate) r.per_node)
      in
      if Float.abs (u_hat -. v.utility) /. Float.abs v.utility > 0.08 then
        Alcotest.failf "n=%d W=%d: payoff %.4f vs %.4f" n w u_hat v.utility)
    [ (5, 79); (10, 200); (20, 339) ]

let test_slotted_lemma1_ordering_in_simulation () =
  (* Lemma 1 in the packet simulation: the node with the smaller window
     transmits more, faces a *lower* collision probability (it does not
     contend with itself) and earns more. *)
  let cws = [| 40; 80; 80; 80; 80 |] in
  let r = slotted ~duration:120. cws in
  Alcotest.(check bool) "deviant transmits more" true
    (r.per_node.(0).tau_hat > r.per_node.(1).tau_hat);
  Alcotest.(check bool) "deviant collides less" true
    (r.per_node.(0).p_hat < r.per_node.(1).p_hat);
  Alcotest.(check bool) "deviant earns more" true
    (r.per_node.(0).payoff_rate > r.per_node.(1).payoff_rate)

let test_slotted_rts_cts_mode () =
  (* RTS/CTS collisions are cheap, so at an aggressive window the RTS/CTS
     network sustains much higher welfare than basic access. *)
  let basic = slotted ~duration:60. (Array.make 10 32) in
  let rts = slotted ~params:rts_cts ~duration:60. (Array.make 10 32) in
  Alcotest.(check bool) "rts/cts wins under heavy contention" true
    (rts.welfare_rate > basic.welfare_rate)

let test_slotted_symmetric_fairness () =
  let r = slotted ~duration:120. (Array.make 8 64) in
  let shares = Array.map (fun (s : Netsim.Slotted.node_stats) -> s.throughput) r.per_node in
  Alcotest.(check bool) "jain close to 1" true
    (Prelude.Stats.jain_fairness shares > 0.99)

let test_slotted_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Slotted.run: empty network")
    (fun () -> ignore (slotted [||]));
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Slotted.run: duration must be positive") (fun () ->
      ignore (Netsim.Slotted.run { params = default; cws = [| 8 |]; duration = 0.; seed = 0 }));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Slotted.run: window must be >= 1") (fun () ->
      ignore (slotted [| 0 |]));
  (* Non-finite inputs: NaN used to run as PER 0 or return NaN stats, and
     an infinite horizon never returned. *)
  Alcotest.check_raises "nan duration"
    (Invalid_argument "Slotted.run: duration must be positive") (fun () ->
      ignore (slotted ~duration:nan [| 8 |]));
  Alcotest.check_raises "infinite duration"
    (Invalid_argument "Slotted.run: duration must be finite") (fun () ->
      ignore (slotted ~duration:infinity [| 8 |]));
  Alcotest.check_raises "nan per"
    (Invalid_argument "Slotted.run: per must be in [0, 1)") (fun () ->
      ignore
        (Netsim.Slotted.run ~per:nan
           { params = default; cws = [| 8 |]; duration = 1.; seed = 0 }))

let test_payoff_oracle_positive_near_optimum () =
  let u =
    Netsim.Slotted.payoff_oracle ~params:default ~n:5 ~duration:30. ~seed:3 79
  in
  let v = (Dcf.Model.homogeneous default ~n:5 ~w:79).Dcf.Model.utility in
  Alcotest.(check bool) "within 15% of analytic" true
    (Float.abs (u -. v) /. v < 0.15)

(* {1 Spatial simulator} *)

let complete_graph n = Array.init n (fun i -> List.filter (fun j -> j <> i) (List.init n Fun.id))

let spatial ?(params = default) ?(duration = 30.) ?(seed = 9) ~adjacency cws =
  Netsim.Spatial.run { params; adjacency; cws; duration; seed }

let test_spatial_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Spatial.run: empty network")
    (fun () -> ignore (spatial ~adjacency:[||] [||]));
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Spatial.run: adjacency not symmetric") (fun () ->
      ignore (spatial ~adjacency:[| [ 1 ]; [] |] [| 8; 8 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Spatial.run: cws length mismatch") (fun () ->
      ignore (spatial ~adjacency:(complete_graph 3) [| 8 |]))

let test_spatial_deterministic () =
  let a = spatial ~adjacency:(complete_graph 4) (Array.make 4 32) in
  let b = spatial ~adjacency:(complete_graph 4) (Array.make 4 32) in
  Alcotest.(check int) "same deliveries" a.delivered b.delivered

let test_spatial_accounting () =
  let r = spatial ~adjacency:(complete_graph 5) (Array.make 5 64) in
  Array.iter
    (fun (s : Netsim.Spatial.node_stats) ->
      Alcotest.(check int) "attempts decompose" s.attempts
        (s.successes + s.local_collisions + s.hidden_failures);
      Alcotest.(check bool) "p_hn_hat in [0,1]" true
        (s.p_hn_hat >= 0. && s.p_hn_hat <= 1.))
    r.per_node;
  let total = Array.fold_left (fun acc (s : Netsim.Spatial.node_stats) -> acc + s.successes) 0 r.per_node in
  Alcotest.(check int) "delivered + late = sum of successes"
    (r.delivered + r.delivered_late) total

let test_spatial_complete_graph_has_no_hidden_failures () =
  let r = spatial ~adjacency:(complete_graph 6) (Array.make 6 32) in
  Array.iter
    (fun (s : Netsim.Spatial.node_stats) ->
      Alcotest.(check int) "no hidden terminals in a clique" 0 s.hidden_failures;
      check_close "p_hn_hat = 1" 1. s.p_hn_hat)
    r.per_node

let test_spatial_complete_graph_matches_slotted () =
  (* On a clique the spatial simulator is the single-hop channel, so its
     welfare must be close to the slotted simulator's (duration-rounding
     differs slightly). *)
  let n = 5 and w = 79 in
  let sp = spatial ~duration:60. ~adjacency:(complete_graph n) (Array.make n w) in
  let sl = slotted ~duration:60. (Array.make n w) in
  let rel = Float.abs (sp.welfare_rate -. sl.welfare_rate) /. sl.welfare_rate in
  Alcotest.(check bool)
    (Printf.sprintf "welfare within 10%% (rel %.3f)" rel)
    true (rel < 0.10)

let test_spatial_isolated_node_stays_silent () =
  let adjacency = [| [ 1 ]; [ 0 ]; [] |] in
  let r = spatial ~adjacency [| 16; 16; 16 |] in
  Alcotest.(check int) "no attempts without neighbours" 0 r.per_node.(2).attempts;
  Alcotest.(check bool) "the pair still communicates" true (r.per_node.(0).successes > 0)

(* Classic hidden-terminal chain: 0 - 1 - 2 where 0 and 2 cannot hear each
   other and both send to 1. *)
let hidden_chain = [| [ 1 ]; [ 0; 2 ]; [ 1 ] |]

let test_spatial_hidden_terminals_appear_in_basic () =
  let r = spatial ~duration:60. ~adjacency:hidden_chain [| 32; 32; 32 |] in
  let outer = r.per_node.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "hidden failures observed (%d)" outer.hidden_failures)
    true
    (outer.hidden_failures > 0);
  Alcotest.(check bool) "degradation factor below 1" true (outer.p_hn_hat < 1.)

let test_spatial_rts_mitigates_hidden_terminals () =
  (* With RTS/CTS only the short RTS is vulnerable, so the hidden-terminal
     loss rate must drop sharply relative to basic access. *)
  let basic = spatial ~duration:60. ~adjacency:hidden_chain [| 32; 32; 32 |] in
  let rts =
    spatial ~params:rts_cts ~duration:60. ~adjacency:hidden_chain [| 32; 32; 32 |]
  in
  let loss (r : Netsim.Spatial.result) =
    let s = r.per_node.(0) in
    1. -. s.p_hn_hat
  in
  Alcotest.(check bool)
    (Printf.sprintf "basic loss %.3f > rts loss %.3f" (loss basic) (loss rts))
    true
    (loss basic > 2. *. loss rts)

let test_spatial_spatial_reuse () =
  (* Two far-apart pairs transmit concurrently: aggregate throughput beats a
     single pair's. *)
  let pairs = [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |] in
  let two = spatial ~duration:60. ~adjacency:pairs (Array.make 4 32) in
  let one = spatial ~duration:60. ~adjacency:[| [ 1 ]; [ 0 ] |] (Array.make 2 32) in
  Alcotest.(check bool) "parallel pairs deliver more" true
    (two.delivered > (3 * one.delivered) / 2)

let test_spatial_smaller_window_more_attempts () =
  let adjacency = complete_graph 4 in
  let r = spatial ~duration:60. ~adjacency [| 8; 64; 64; 64 |] in
  Alcotest.(check bool) "aggressive node attempts more" true
    (r.per_node.(0).attempts > r.per_node.(1).attempts)

let test_spatial_paper_scenario_runs () =
  (* Smoke-test the Sec. VII.B configuration at reduced duration: 100 nodes,
     RTS/CTS, random connected topology. *)
  let w =
    Mobility.Waypoint.create ~seed:7
      { width = 1000.; height = 1000.; speed_min = 0.; speed_max = 5. }
      ~n:100
  in
  let adjacency = Mobility.Topology.snapshot ~connect_attempts:100 w ~range:250. in
  let r =
    spatial ~params:rts_cts ~duration:5. ~adjacency (Array.make 100 26)
  in
  Alcotest.(check bool) "packets flow" true (r.delivered > 100);
  let p_hns = Array.map (fun (s : Netsim.Spatial.node_stats) -> s.p_hn_hat) r.per_node in
  Alcotest.(check bool) "some hidden-node degradation" true
    (Prelude.Stats.mean_of p_hns < 1.)

let test_spatial_rts_cts_trace () =
  let r, instants =
    recorded (fun () ->
        Netsim.Spatial.run
          {
            params = rts_cts;
            adjacency = hidden_chain;
            cws = [| 32; 32; 32 |];
            duration = 10.;
            seed = 9;
          })
  in
  let rts = count "spatial.rts" instants in
  let cts = count "spatial.cts" instants in
  Alcotest.(check bool) "handshakes happened" true (rts > 0);
  (* Every success won the channel through a CTS, and every CTS answer is
     followed by protected data, so the counts agree exactly. *)
  Alcotest.(check int) "one CTS per delivery" (r.delivered + r.delivered_late)
    cts;
  Alcotest.(check bool) "no more CTS than RTS" true (cts <= rts);
  (* In the hidden chain the edge nodes cannot hear each other: the centre's
     CTS is what silences them, so NAV deferrals must be observed. *)
  Alcotest.(check bool) "NAV deferrals observed" true
    (count "spatial.nav_defer" instants > 0);
  (* A NAV instant follows the CTS that set it and carries the NAV's end
     slot, which lies past that CTS's slot. *)
  let _, navs_in_future =
    List.fold_left
      (fun (cts_slot, ok) (name, a, _) ->
        match name with
        | "spatial.cts" -> (a, ok)
        | "spatial.nav_defer" -> (cts_slot, ok && a > cts_slot)
        | _ -> (cts_slot, ok))
      (max_int, true) instants
  in
  Alcotest.(check bool) "NAV extends into the future" true navs_in_future

let test_spatial_basic_mode_has_no_handshake_events () =
  let (_ : Netsim.Spatial.result), instants =
    recorded (fun () ->
        Netsim.Spatial.run
          {
            params = default;
            adjacency = hidden_chain;
            cws = [| 32; 32; 32 |];
            duration = 5.;
            seed = 9;
          })
  in
  Alcotest.(check int) "no RTS in basic mode" 0 (count "spatial.rts" instants);
  Alcotest.(check int) "no CTS in basic mode" 0 (count "spatial.cts" instants);
  Alcotest.(check int) "no NAV in basic mode" 0
    (count "spatial.nav_defer" instants)

(* {1 Channel noise (PER)} *)

let test_slotted_per_occupies_ts () =
  let r, instants =
    recorded (fun () ->
        Netsim.Slotted.run ~per:0.4
          { params = default; cws = [| 16 |]; duration = 20.; seed = 5 })
  in
  let channel_errors = count "slotted.channel_error" instants in
  let node = r.per_node.(0) in
  (* A lone station never collides: every failed attempt is channel noise,
     and the recorder must say so. *)
  Alcotest.(check int) "lone node never collides" 0
    (count "slotted.collision" instants);
  Alcotest.(check int) "every failure is a channel error"
    (node.attempts - node.successes)
    channel_errors;
  Alcotest.(check bool) "channel errors happen" true (channel_errors > 0);
  let a = r.airtime in
  check_close "four fractions sum to 1" 1.
    (a.idle_fraction +. a.success_fraction +. a.collision_fraction
   +. a.error_fraction);
  check_close "no collision airtime for one node" 0. a.collision_fraction;
  (* A corrupted frame goes out in full, so it costs Ts — the same airtime
     per attempt as a success.  The error share of busy time is then the
     error rate itself. *)
  let observed = a.error_fraction /. (a.error_fraction +. a.success_fraction) in
  Alcotest.(check bool)
    (Printf.sprintf "error share of Ts airtime near per (%.3f)" observed)
    true
    (Float.abs (observed -. 0.4) < 0.05)

let test_slotted_per_coexists_with_collisions () =
  let r, instants =
    recorded (fun () ->
        Netsim.Slotted.run ~per:0.2
          { params = default; cws = [| 16; 16; 16 |]; duration = 20.; seed = 8 })
  in
  Alcotest.(check bool) "collisions still traced" true
    (count "slotted.collision" instants > 0);
  Alcotest.(check bool) "channel errors traced too" true
    (count "slotted.channel_error" instants > 0);
  let a = r.airtime in
  check_close "fractions still sum to 1" 1.
    (a.idle_fraction +. a.success_fraction +. a.collision_fraction
   +. a.error_fraction);
  Alcotest.(check bool) "both busy kinds accrue airtime" true
    (a.collision_fraction > 0. && a.error_fraction > 0.);
  Array.iter
    (fun (n : Netsim.Slotted.node_stats) ->
      Alcotest.(check int) "attempts decompose" n.attempts
        (n.successes + n.collisions))
    r.per_node

(* {1 Event core vs reference loop} *)

let quiet () = Telemetry.Registry.create ()

(* Decode pairs (0,1) and (2,3); carrier sense additionally couples 0 and 2,
   exercising the cs-only freeze path. *)
let cs_bridge =
  ( [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |],
    Some [| [ 1; 2 ]; [ 0 ]; [ 0; 3 ]; [ 2 ] |] )

let test_spatial_event_core_matches_reference () =
  let chain8 =
    Array.init 8 (fun i -> List.filter (fun j -> j >= 0 && j < 8) [ i - 1; i + 1 ])
  in
  let topologies =
    [
      ("pair", [| [ 1 ]; [ 0 ] |], None);
      ("hidden3", hidden_chain, None);
      ("chain8", chain8, None);
      ("clique5", complete_graph 5, None);
      ("two-pairs", [| [ 1 ]; [ 0 ]; [ 3 ]; [ 2 ] |], None);
      ("cs-bridge", fst cs_bridge, snd cs_bridge);
      ("isolated", [| [ 1 ]; [ 0 ]; [] |], None);
    ]
  in
  List.iter
    (fun (label, adjacency, cs_adjacency) ->
      List.iter
        (fun (mode, params) ->
          List.iter
            (fun seed ->
              List.iter
                (fun retry_limit ->
                  let n = Array.length adjacency in
                  let config =
                    {
                      Netsim.Spatial.params;
                      adjacency;
                      cws = Array.init n (fun i -> 16 lsl (i mod 2));
                      duration = 1.;
                      seed;
                    }
                  in
                  let fast =
                    Netsim.Spatial.run ~telemetry:(quiet ()) ?cs_adjacency
                      ?retry_limit config
                  in
                  let slow =
                    Netsim.Spatial.run_reference ~telemetry:(quiet ())
                      ?cs_adjacency ?retry_limit config
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s seed=%d retry=%s bit-identical" label
                       mode seed
                       (match retry_limit with
                       | None -> "inf"
                       | Some r -> string_of_int r))
                    true
                    (Netsim.Spatial.equal_result fast slow))
                [ None; Some 4 ])
            [ 1; 7 ])
        [ ("basic", default); ("rts", rts_cts) ])
    topologies

let test_spatial_event_core_matches_reference_random_25 () =
  (* The acceptance benchmark topology: 25 nodes scattered by the waypoint
     model, snapshot into a connected random geometric graph. *)
  let w =
    Mobility.Waypoint.create ~seed:21
      { width = 500.; height = 500.; speed_min = 0.; speed_max = 5. }
      ~n:25
  in
  let adjacency = Mobility.Topology.snapshot ~connect_attempts:50 w ~range:180. in
  List.iter
    (fun (mode, params) ->
      let config =
        {
          Netsim.Spatial.params;
          adjacency;
          cws = Array.make 25 32;
          duration = 0.5;
          seed = 13;
        }
      in
      let fast = Netsim.Spatial.run ~telemetry:(quiet ()) config in
      let slow = Netsim.Spatial.run_reference ~telemetry:(quiet ()) config in
      Alcotest.(check bool)
        (Printf.sprintf "random-25/%s bit-identical" mode)
        true
        (Netsim.Spatial.equal_result fast slow))
    [ ("basic", default); ("rts", rts_cts) ]

(* The calendar's longest delays: windows up to 1024 at m = 5 draw
   backoffs of up to 32 767 slots, AIFS adds defer slots and TXOP bursts
   stretch Ts, so the timing wheel spans 2^16 slots (3.3 s at
   σ = 50 µs) and a 12 s horizon wraps it more than three times. *)
let test_spatial_event_core_long_delays () =
  let long p = { p with Dcf.Params.cw_max = 1024; max_backoff_stage = 5 } in
  (* A centre and four leaves that only hear the centre: the leaves are
     mutually hidden, so they keep failing into stage 5 and draw backoffs
     above 32 000 slots. *)
  let star5 = [| [ 1; 2; 3; 4 ]; [ 0 ]; [ 0 ]; [ 0 ]; [ 0 ] |] in
  let windows = [| 1024; 16; 512; 64; 1024 |] in
  List.iter
    (fun (label, adjacency, cs_adjacency) ->
      let n = Array.length adjacency in
      let cws = Array.init n (fun i -> windows.(i mod Array.length windows)) in
      let knobs =
        Array.mapi
          (fun i w ->
            {
              (Dcf.Strategy_space.of_cw w) with
              aifs = 2 * (i mod 3);
              txop_frames = 1 + (i mod 2);
            })
          cws
      in
      List.iter
        (fun (mode, params) ->
          List.iter
            (fun retry_limit ->
              List.iter
                (fun strategies ->
                  let config =
                    {
                      Netsim.Spatial.params;
                      adjacency;
                      cws;
                      duration = 12.;
                      seed = 5;
                    }
                  in
                  let fast =
                    Netsim.Spatial.run ~telemetry:(quiet ()) ?cs_adjacency
                      ?retry_limit ?strategies config
                  in
                  let slow =
                    Netsim.Spatial.run_reference ~telemetry:(quiet ())
                      ?cs_adjacency ?retry_limit ?strategies config
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s retry=%s%s bit-identical" label mode
                       (match retry_limit with
                       | None -> "inf"
                       | Some r -> string_of_int r)
                       (if Option.is_none strategies then "" else " aifs+txop"))
                    true
                    (Netsim.Spatial.equal_result fast slow))
                [ None; Some knobs ])
            [ None; Some 0 ])
        [ ("basic", long default); ("rts", long rts_cts) ])
    [
      ("hidden3", hidden_chain, None);
      ("star5", star5, None);
      ("clique4", complete_graph 4, None);
      ("cs-bridge", fst cs_bridge, snd cs_bridge);
    ]

(* Frames shorter than half a slot: with 1 s slots every frame rounds to
   one slot, so an RTS/CTS exchange ends in the slot its RTS resolves and
   its CTS silences nobody.  The event core must not freeze (and so
   re-arm the AIFS defer of) the neighbours the reference loop leaves
   counting. *)
let test_spatial_event_core_sub_slot_frames () =
  let params = { rts_cts with Dcf.Params.sigma = 1.0 } in
  List.iter
    (fun (label, adjacency) ->
      let n = Array.length adjacency in
      let cws = Array.make n 8 in
      let aifs =
        Array.map (fun w -> { (Dcf.Strategy_space.of_cw w) with aifs = 2 }) cws
      in
      List.iter
        (fun strategies ->
          let config =
            {
              Netsim.Spatial.params;
              adjacency;
              cws;
              duration = 2000.;
              seed = 3;
            }
          in
          let fast =
            Netsim.Spatial.run ~telemetry:(quiet ()) ?strategies config
          in
          let slow =
            Netsim.Spatial.run_reference ~telemetry:(quiet ()) ?strategies
              config
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s%s bit-identical" label
               (if Option.is_none strategies then "" else " aifs"))
            true
            (Netsim.Spatial.equal_result fast slow))
        [ None; Some aifs ])
    [ ("hidden3", hidden_chain); ("clique4", complete_graph 4) ]

(* {1 Allocation} *)

let attempts_of (r : Netsim.Spatial.result) =
  Array.fold_left
    (fun acc (s : Netsim.Spatial.node_stats) -> acc + s.attempts)
    0 r.per_node

(* The same seeded run at horizons T and 2T does the same set-up and
   builds a result of the same size, so the extra minor words over the
   extra units of work (attempts, or delivered packets) is what the loop
   itself allocates per unit; at most [limit] are allowed. *)
let check_allocation_free ?(limit = 1.) ?(unit = "attempts") label count run
    t =
  let measure duration =
    let w0 = Gc.minor_words () in
    let r = run duration in
    (Gc.minor_words () -. w0, count r)
  in
  let w1, a1 = measure t in
  let w2, a2 = measure (2. *. t) in
  let extra_words = w2 -. w1 and extra = a2 - a1 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f extra minor words over %d extra %s" label
       extra_words extra unit)
    true
    (extra > 1000 && extra_words <= limit *. float_of_int extra)

let test_event_core_allocation_free () =
  (* The shadow reference run of the differential mode allocates by
     design; the guard measures the event core alone. *)
  (match Sys.getenv_opt "NETSIM_SPATIAL_DIFF" with
  | None | Some "" | Some "0" -> ()
  | Some _ -> Alcotest.skip ());
  (* Basic access on the constant-density substrate of the scale bench:
     decode 120 m, carrier sense 180 m, mean degree ~12. *)
  let n = 400 and range = 120. in
  let side = sqrt (float_of_int n *. Float.pi *. range *. range /. 12.) in
  let positions =
    Mobility.Waypoint.positions
      (Mobility.Waypoint.create ~seed:3
         { width = side; height = side; speed_min = 0.; speed_max = 5. }
         ~n)
  in
  check_allocation_free "run_grid" attempts_of
    (fun duration ->
      Netsim.Spatial.run_grid ~telemetry:(quiet ()) ~params:default ~positions
        ~range ~cs_range:180. ~cws:(Array.make n 128) ~duration ~seed:3 ())
    1.;
  (* RTS/CTS with AIFS and TXOP strategies on the random-25 topology. *)
  let w =
    Mobility.Waypoint.create ~seed:21
      { width = 500.; height = 500.; speed_min = 0.; speed_max = 5. }
      ~n:25
  in
  let adjacency =
    Mobility.Topology.snapshot ~connect_attempts:50 w ~range:180.
  in
  let cws = Array.make 25 32 in
  let strategies =
    Array.init 25 (fun i ->
        {
          (Dcf.Strategy_space.of_cw 32) with
          aifs = i mod 3;
          txop_frames = 1 + (i mod 2);
        })
  in
  check_allocation_free "run" attempts_of
    (fun duration ->
      Netsim.Spatial.run ~telemetry:(quiet ()) ~strategies
        { params = rts_cts; adjacency; cws; duration; seed = 13 })
    4.

let test_contention_loops_allocation_free () =
  let slotted_attempts (r : Netsim.Slotted.result) =
    Array.fold_left
      (fun acc (s : Netsim.Slotted.node_stats) -> acc + s.attempts)
      0 r.per_node
  in
  (* AIFS 0-2 and TXOP 1-3 strategies over mixed windows, then a large
     CW-only network. *)
  let strategies =
    Array.init 20 (fun i ->
        {
          (Dcf.Strategy_space.of_cw (32 lsl (i mod 3))) with
          aifs = i mod 3;
          txop_frames = 1 + (i mod 3);
        })
  in
  let cws = Array.map (fun (s : Dcf.Strategy_space.t) -> s.cw) strategies in
  check_allocation_free "Slotted.run strategies" slotted_attempts
    (fun duration ->
      Netsim.Slotted.run ~telemetry:(quiet ()) ~strategies ~retry_limit:3
        { params = default; cws; duration; seed = 5 })
    15.;
  check_allocation_free "Slotted.run n=50" slotted_attempts
    (fun duration ->
      Netsim.Slotted.run ~telemetry:(quiet ())
        { params = default; cws = Array.make 50 128; duration; seed = 6 })
    10.;
  (* Channel noise: every success draws Rng.bernoulli. *)
  check_allocation_free "Slotted.run PER 0.1" slotted_attempts
    (fun duration ->
      Netsim.Slotted.run ~telemetry:(quiet ()) ~per:0.1
        { params = default; cws = Array.make 10 64; duration; seed = 9 })
    20.;
  (* Below saturation, where queues stay short: an arrival is drawn from
     Rng.bits53_nonzero, which returns unboxed. *)
  let rate = 0.6 *. Netsim.Unsaturated.saturation_rate default ~n:10 ~w:128 in
  check_allocation_free ~unit:"delivered packets"
    "Unsaturated.run load 0.6"
    (fun (r : Netsim.Unsaturated.result) -> r.total_delivered)
    (fun duration ->
      Netsim.Unsaturated.run
        {
          params = default;
          cws = Array.make 10 128;
          arrival_rates = Array.make 10 rate;
          duration;
          seed = 7;
        })
    30.;
  (* The same bound with AIFS 0-2 strategies, retry limit 3 and channel
     noise through the engine's Poisson source. *)
  let strategies =
    Array.init 10 (fun i ->
        { (Dcf.Strategy_space.of_cw 128) with aifs = i mod 3 })
  in
  check_allocation_free ~unit:"delivered packets"
    "Slotted.run Poisson load 0.6 strategies"
    (fun (r : Netsim.Slotted.result) ->
      Array.fold_left
        (fun acc (s : Netsim.Slotted.node_stats) -> acc + s.successes)
        0 r.per_node)
    (fun duration ->
      Netsim.Slotted.run ~telemetry:(quiet ()) ~strategies ~retry_limit:3
        ~per:0.1 ~arrival_rates:(Array.make 10 rate)
        { params = default; cws = Array.make 10 128; duration; seed = 8 })
    30.

(* {1 Airtime conservation} *)

(* Random symmetric graph with decode ⊆ carrier-sense: each pair gets a
   decode+cs edge, a cs-only edge, or nothing. *)
let random_topology rng n =
  let adj = Array.make n [] and cs = Array.make n [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prelude.Rng.bernoulli rng 0.35 then begin
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j);
        cs.(i) <- j :: cs.(i);
        cs.(j) <- i :: cs.(j)
      end
      else if Prelude.Rng.bernoulli rng 0.2 then begin
        cs.(i) <- j :: cs.(i);
        cs.(j) <- i :: cs.(j)
      end
    done
  done;
  (adj, cs)

let test_spatial_airtime_conservation =
  QCheck.Test.make ~name:"spatial airtime conserved on random topologies"
    ~count:25
    QCheck.(triple (int_range 2 12) small_nat small_nat)
    (fun (n, topo_seed, sim_seed) ->
      let rng = Prelude.Rng.create (1 + topo_seed) in
      let adjacency, cs_adjacency = random_topology rng n in
      let params = if Prelude.Rng.bernoulli rng 0.5 then default else rts_cts in
      let cws = Array.init n (fun _ -> 8 lsl Prelude.Rng.int rng 4) in
      let r =
        Netsim.Spatial.run ~telemetry:(quiet ()) ~cs_adjacency
          { params; adjacency; cws; duration = 0.5; seed = sim_seed }
      in
      let a = r.airtime in
      let balance =
        a.idle_fraction +. a.success_fraction +. a.collision_fraction
        -. a.overlap_fraction
      in
      Float.abs (balance -. 1.) < 1e-9
      && a.idle_fraction >= 0.
      && a.success_fraction >= 0.
      && a.collision_fraction >= 0.
      && a.overlap_fraction >= 0.
      && a.busy_fraction >= 0.
      && a.busy_fraction <= 1.
      && Array.for_all
           (fun (s : Netsim.Spatial.node_stats) ->
             s.attempts = s.successes + s.local_collisions + s.hidden_failures)
           r.per_node)

let test_spatial_airtime_clipped_at_horizon () =
  (* A short run on a busy clique is guaranteed to end mid-transmission; the
     clipped tallies must still balance and busy time cannot exceed the
     horizon. *)
  let r =
    Netsim.Spatial.run ~telemetry:(quiet ())
      {
        params = default;
        adjacency = complete_graph 4;
        cws = Array.make 4 8;
        duration = 0.02;
        seed = 3;
      }
  in
  let a = r.airtime in
  check_close "balance holds at a mid-frame horizon" 1.
    (a.idle_fraction +. a.success_fraction +. a.collision_fraction
   -. a.overlap_fraction);
  Alcotest.(check bool) "busy cannot exceed the horizon" true
    (a.busy_fraction <= 1.)

(* {1 Grid index & sharded scale} *)

(* Quarter-cell coordinate lattice: with cell = 75 every fourth lattice
   step lands a point exactly on a bucket boundary, the rounding case the
   padded candidate box must absorb. *)
let grid_cell = 75.
let grid_quarter = grid_cell /. 4.
let grid_radii = [| 0.; grid_quarter; grid_cell; 2. *. grid_cell; 500. |]

let grid_point (ix, iy) =
  { Mobility.Geom.x = float_of_int ix *. grid_quarter;
    y = float_of_int iy *. grid_quarter }

let test_grid_query_matches_scan =
  QCheck.Test.make ~name:"grid query equals brute-force scan" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40) (pair (int_bound 26) (int_bound 26)))
        (int_bound 4))
    (fun (cells, ridx) ->
      let pts = Array.of_list (List.map grid_point cells) in
      let radius = grid_radii.(ridx) in
      let g = Mobility.Grid.create ~cell:grid_cell pts in
      let n = Array.length pts in
      let ok = ref true in
      for i = 0 to n - 1 do
        let got = Mobility.Grid.query g ~radius i in
        let want =
          List.filter
            (fun j ->
              j <> i && Mobility.Geom.within ~range:radius pts.(i) pts.(j))
            (List.init n Fun.id)
        in
        if got <> want then ok := false
      done;
      !ok)

let geo_positions ~seed n =
  let w =
    Mobility.Waypoint.create ~seed
      { width = 500.; height = 500.; speed_min = 0.; speed_max = 5. }
      ~n
  in
  Mobility.Waypoint.positions w

(* The scale bench's constant-density substrate: decode 120 m, carrier
   sense 180 m, mean degree ~12. *)
let substrate_positions ~seed n =
  let side = sqrt (float_of_int n *. Float.pi *. 120. *. 120. /. 12.) in
  Mobility.Waypoint.positions
    (Mobility.Waypoint.create ~seed
       { width = side; height = side; speed_min = 0.; speed_max = 5. }
       ~n)

(* A lattice of pitch range/2, so every other row and column sits exactly
   on a cell boundary and neighbours sit exactly at [range], plus one
   node out of everyone's carrier-sense range. *)
let lattice_positions ~range side =
  let pitch = range /. 2. in
  Array.init ((side * side) + 1) (fun k ->
      if k = side * side then
        { Mobility.Geom.x = 10. *. range; y = 10. *. range }
      else
        {
          Mobility.Geom.x = float_of_int (k mod side) *. pitch;
          y = float_of_int (k / side) *. pitch;
        })

let mixed_strategies cws =
  Array.mapi
    (fun i cw ->
      {
        (Dcf.Strategy_space.of_cw cw) with
        aifs = i mod 3;
        txop_frames = 1 + (i mod 2);
      })
    cws

(* [run] has no stream override, so a [run_grid] given [rng_of] can only
   match it when [rng_of] hands node [c] the stream [run] splits for it;
   a stream given to the wrong node shows as a mismatch.  Each call gets
   a fresh copy, as from [Sharded.node_rng], so the differential mode's
   shadow run starts from the same states. *)
let run_streams ~seed n =
  let master = Prelude.Rng.create seed in
  let streams = Array.init n (fun _ -> Prelude.Rng.split master) in
  fun c -> Prelude.Rng.copy streams.(c)

let test_run_grid_bit_matches_run () =
  List.iter
    (fun (label, positions, seed, params, range, cs_range, knobs, retry_limit)
       ->
      let n = Array.length positions in
      let adjacency = Mobility.Topology.adjacency ~range positions in
      let cs_adjacency =
        Mobility.Topology.adjacency ~range:cs_range positions
      in
      let cws = Array.init n (fun i -> 16 lsl (i mod 2)) in
      let strategies, rng_of =
        if knobs then
          (Some (mixed_strategies cws), Some (run_streams ~seed n))
        else (None, None)
      in
      let duration = 1. in
      let lists, lists_instants =
        recorded (fun () ->
            Netsim.Spatial.run ~telemetry:(quiet ()) ~cs_adjacency ?retry_limit
              ?strategies
              { params; adjacency; cws; duration; seed })
      in
      let grid, grid_instants =
        recorded (fun () ->
            Netsim.Spatial.run_grid ~telemetry:(quiet ()) ?retry_limit
              ?strategies ?rng_of ~params ~positions ~range ~cs_range ~cws
              ~duration ~seed ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: grid core bit-identical" label)
        true
        (Netsim.Spatial.equal_result lists grid);
      Alcotest.(check bool)
        (Printf.sprintf "%s: same recorder instants, same order" label)
        true
        (lists_instants = grid_instants))
    (* [knobs]: AIFS/TXOP strategies and an [rng_of]. *)
    [
      ("basic-24", geo_positions ~seed:3 24, 3, default, 150., 210., false,
       None);
      ("rts-32", geo_positions ~seed:7 32, 7, rts_cts, 150., 225., false,
       None);
      ("cs=range-16", geo_positions ~seed:11 16, 11, default, 120., 120.,
       false, None);
      ("substrate-400 basic", substrate_positions ~seed:4 400, 4, default, 120.,
       180., true, Some 2);
      ("substrate-400 rts", substrate_positions ~seed:5 400, 5, rts_cts, 120.,
       180., true, Some 2);
      ("lattice+isolated", lattice_positions ~range:120. 12, 6, rts_cts, 120.,
       180., true, None);
    ]

let sharded_config ?(duration = 0.5) ~seed n =
  {
    Netsim.Sharded.params = default;
    positions = geo_positions ~seed n;
    range = 120.;
    cs_range = 180.;
    cws = Array.make n 32;
    duration;
    seed;
  }

let test_sharded_single_shard_matches_run_grid () =
  let seed = 5 in
  let cfg = sharded_config ~seed 40 in
  let sh = Netsim.Sharded.run ~telemetry:(quiet ()) ~shards:1 cfg in
  let single =
    Netsim.Spatial.run_grid ~telemetry:(quiet ())
      ~rng_of:(Netsim.Sharded.node_rng ~seed) ~params:cfg.params
      ~positions:cfg.positions ~range:cfg.range ~cs_range:cfg.cs_range
      ~cws:cfg.cws ~duration:cfg.duration ~seed ()
  in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d stats bit-identical" i)
        true
        (Netsim.Spatial.equal_stats s single.per_node.(i)))
    sh.per_node;
  Alcotest.(check int) "one live shard" 1 (Array.length sh.shards);
  Alcotest.(check int) "nothing mirrored" 0 sh.shards.(0).mirrored

let test_sharded_deterministic_across_workers () =
  let cfg = sharded_config ~seed:13 60 in
  let run workers =
    Netsim.Sharded.run ~telemetry:(quiet ())
      ~pool:(Runner.Pool.create ~registry:(quiet ()) ~workers ())
      ~shards:3 cfg
  in
  let a = run 1 and b = run 3 in
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d stats identical across pools" i)
        true
        (Netsim.Spatial.equal_stats s b.per_node.(i)))
    a.per_node;
  Alcotest.(check int) "same delivered" a.delivered b.delivered

let test_sharded_close_to_single () =
  (* The calibrated statistical point lives in the conformance suite; this
     is a loose smoke that the boundary protocol is not nonsense. *)
  let seed = 21 in
  let cfg = sharded_config ~duration:1. ~seed 60 in
  let sh = Netsim.Sharded.run ~telemetry:(quiet ()) ~shards:3 cfg in
  let single =
    Netsim.Spatial.run_grid ~telemetry:(quiet ())
      ~rng_of:(Netsim.Sharded.node_rng ~seed) ~params:cfg.params
      ~positions:cfg.positions ~range:cfg.range ~cs_range:cfg.cs_range
      ~cws:cfg.cws ~duration:cfg.duration ~seed ()
  in
  let total r =
    Array.fold_left
      (fun acc (s : Netsim.Spatial.node_stats) -> acc + s.successes)
      0 r
  in
  let a = total sh.per_node and b = total single.per_node in
  Alcotest.(check bool) "both deliver" true (a > 0 && b > 0);
  let rel =
    Float.abs (float_of_int a -. float_of_int b)
    /. float_of_int (Stdlib.max a b)
  in
  Alcotest.(check bool)
    (Printf.sprintf "delivery within 25%% (rel %.3f)" rel)
    true (rel < 0.25)

(* NaN fails every comparison, so "<= 0." style checks let it through;
   each geometric entry point must reject it, and the infinities, with
   [Invalid_argument]. *)
let test_non_finite_geometry_rejected () =
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" label
  in
  let pt x y = { Mobility.Geom.x; y } in
  let pts = [| pt 0. 0.; pt 50. 50.; pt 100. 0. |] in
  let bad = [ nan; infinity; neg_infinity ] in
  List.iter
    (fun v ->
      let label what = Printf.sprintf "%s %h" what v in
      rejects (label "Grid.create ~cell") (fun () ->
          Mobility.Grid.create ~cell:v pts);
      rejects (label "Grid.create x") (fun () ->
          Mobility.Grid.create ~cell:10. [| pt v 0. |]);
      rejects (label "Grid.create y") (fun () ->
          Mobility.Grid.create ~cell:10. [| pt 0. v |]);
      let run_grid ?(cs_range = 180.) range =
        Netsim.Spatial.run_grid ~telemetry:(quiet ()) ~params:default
          ~positions:pts ~range ~cs_range ~cws:(Array.make 3 16)
          ~duration:0.01 ~seed:1 ()
      in
      rejects (label "run_grid ~range") (fun () -> run_grid v);
      rejects (label "run_grid ~cs_range") (fun () ->
          run_grid ~cs_range:v 120.);
      let sharded ?halo ?(positions = pts) ?(cs_range = 180.) range =
        Netsim.Sharded.run ~telemetry:(quiet ()) ?halo ~shards:1
          {
            Netsim.Sharded.params = default;
            positions;
            range;
            cs_range;
            cws = Array.make 3 16;
            duration = 0.01;
            seed = 1;
          }
      in
      rejects (label "Sharded.run ~range") (fun () -> sharded v);
      rejects (label "Sharded.run ~cs_range") (fun () ->
          sharded ~cs_range:v 120.);
      rejects (label "Sharded.run ~halo") (fun () -> sharded ~halo:v 120.);
      rejects (label "Sharded.run positions") (fun () ->
          sharded ~positions:[| pt 0. 0.; pt v 0.; pt 10. 0. |] 120.))
    bad;
  rejects "Grid.gather ~radius nan" (fun () ->
      Mobility.Grid.gather (Mobility.Grid.create ~cell:10. pts) ~radius:nan 0
        (Array.make 3 0));
  rejects "run_grid negative range" (fun () ->
      Netsim.Spatial.run_grid ~telemetry:(quiet ()) ~params:default
        ~positions:pts ~range:(-3.) ~cws:(Array.make 3 16) ~duration:0.01
        ~seed:1 ());
  List.iter
    (fun duration ->
      rejects (Printf.sprintf "run_grid duration %h" duration) (fun () ->
          Netsim.Spatial.run_grid ~telemetry:(quiet ()) ~params:default
            ~positions:pts ~range:120. ~cws:(Array.make 3 16) ~duration
            ~seed:1 ()))
    [ nan; infinity ]

let suite_scale =
  [
    QCheck_alcotest.to_alcotest test_grid_query_matches_scan;
    Alcotest.test_case "run_grid bit-matches run" `Quick
      test_run_grid_bit_matches_run;
    Alcotest.test_case "sharded = run_grid at one shard" `Quick
      test_sharded_single_shard_matches_run_grid;
    Alcotest.test_case "sharded deterministic across workers" `Quick
      test_sharded_deterministic_across_workers;
    Alcotest.test_case "sharded close to single-domain" `Quick
      test_sharded_close_to_single;
    Alcotest.test_case "non-finite geometry rejected" `Quick
      test_non_finite_geometry_rejected;
  ]

let suite_slotted =
  [
    Alcotest.test_case "deterministic" `Quick test_slotted_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_slotted_seed_changes_outcome;
    Alcotest.test_case "accounting invariants" `Quick test_slotted_accounting_invariants;
    Alcotest.test_case "single node" `Quick test_slotted_single_node_never_collides;
    Alcotest.test_case "matches bianchi tau/p" `Slow test_slotted_matches_bianchi_tau_p;
    Alcotest.test_case "matches analytic payoff" `Slow test_slotted_matches_analytic_payoff;
    Alcotest.test_case "lemma 4 in simulation" `Slow test_slotted_lemma1_ordering_in_simulation;
    Alcotest.test_case "rts/cts mode" `Quick test_slotted_rts_cts_mode;
    Alcotest.test_case "symmetric fairness" `Slow test_slotted_symmetric_fairness;
    Alcotest.test_case "validation" `Quick test_slotted_validation;
    Alcotest.test_case "payoff oracle" `Quick test_payoff_oracle_positive_near_optimum;
    Alcotest.test_case "per occupies Ts" `Quick test_slotted_per_occupies_ts;
    Alcotest.test_case "per coexists with collisions" `Quick
      test_slotted_per_coexists_with_collisions;
    Alcotest.test_case "slotted and unsaturated allocation guard" `Quick
      test_contention_loops_allocation_free;
  ]

let suite_spatial =
  [
    Alcotest.test_case "validation" `Quick test_spatial_validation;
    Alcotest.test_case "deterministic" `Quick test_spatial_deterministic;
    Alcotest.test_case "accounting" `Quick test_spatial_accounting;
    Alcotest.test_case "clique has no hidden failures" `Quick test_spatial_complete_graph_has_no_hidden_failures;
    Alcotest.test_case "clique matches slotted" `Slow test_spatial_complete_graph_matches_slotted;
    Alcotest.test_case "isolated node silent" `Quick test_spatial_isolated_node_stays_silent;
    Alcotest.test_case "hidden terminals in basic" `Quick test_spatial_hidden_terminals_appear_in_basic;
    Alcotest.test_case "rts mitigates hidden terminals" `Quick test_spatial_rts_mitigates_hidden_terminals;
    Alcotest.test_case "spatial reuse" `Quick test_spatial_spatial_reuse;
    Alcotest.test_case "aggressive window attempts" `Quick test_spatial_smaller_window_more_attempts;
    Alcotest.test_case "paper scenario smoke" `Slow test_spatial_paper_scenario_runs;
    Alcotest.test_case "rts/cts/nav trace" `Quick test_spatial_rts_cts_trace;
    Alcotest.test_case "basic mode has no handshakes" `Quick
      test_spatial_basic_mode_has_no_handshake_events;
    Alcotest.test_case "event core = reference loop" `Quick
      test_spatial_event_core_matches_reference;
    Alcotest.test_case "event core = reference (random 25)" `Slow
      test_spatial_event_core_matches_reference_random_25;
    Alcotest.test_case "event core = reference (long delays)" `Quick
      test_spatial_event_core_long_delays;
    Alcotest.test_case "event core = reference (sub-slot frames)" `Quick
      test_spatial_event_core_sub_slot_frames;
    Alcotest.test_case "event core allocates nothing per attempt" `Quick
      test_event_core_allocation_free;
    QCheck_alcotest.to_alcotest test_spatial_airtime_conservation;
    Alcotest.test_case "airtime clipped at horizon" `Quick
      test_spatial_airtime_clipped_at_horizon;
  ]

let () =
  Alcotest.run "netsim"
    [
      ("slotted", suite_slotted);
      ("spatial", suite_spatial);
      ("scale", suite_scale);
    ]
