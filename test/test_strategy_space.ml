(* The multi-knob (CW, AIFS, TXOP, rate) strategy space: record semantics
   and canonicalization (qcheck), the widened analytic model, the
   coordinate-descent NE search, the oracle's v2 store schema (with v1
   refusal), the AIFS/TXOP deviation detectors with pinned CW-detection
   rates, and the simulators' strategy support including event-vs-
   reference equivalence off the degenerate subspace. *)

module J = Telemetry.Jsonx
module S = Dcf.Strategy_space

let params = Dcf.Params.default

let temp_dir () =
  let path = Filename.temp_file "strategy_test" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.12g vs %.12g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps *. Float.max 1. (Float.abs expected))

(* {1 Record semantics} *)

let test_degenerate_and_validate () =
  Alcotest.(check bool) "of_cw degenerate" true (S.is_degenerate (S.of_cw 16));
  Alcotest.(check bool) "aifs not degenerate" false
    (S.is_degenerate { (S.of_cw 16) with aifs = 1 });
  Alcotest.(check bool) "txop not degenerate" false
    (S.is_degenerate { (S.of_cw 16) with txop_frames = 2 });
  Alcotest.(check bool) "rate not degenerate" false
    (S.is_degenerate { (S.of_cw 16) with rate = 2.0 });
  let bad s = match S.validate s with Ok () -> false | Error _ -> true in
  Alcotest.(check bool) "cw 0 invalid" true (bad { (S.of_cw 1) with cw = 0 });
  Alcotest.(check bool) "aifs -1 invalid" true (bad { (S.of_cw 1) with aifs = -1 });
  Alcotest.(check bool) "txop 0 invalid" true
    (bad { (S.of_cw 1) with txop_frames = 0 });
  Alcotest.(check bool) "rate 0 invalid" true (bad { (S.of_cw 1) with rate = 0. });
  Alcotest.(check bool) "cap enforced" true
    (match S.validate ~cw_max:64 (S.of_cw 128) with
    | Error _ -> true
    | Ok () -> false)

let test_keys_and_order () =
  Alcotest.(check string) "degenerate key" "w16" (S.to_key (S.of_cw 16));
  Alcotest.(check string)
    "full key" "w32.a2.t3.r0x1p-1"
    (S.to_key { S.cw = 32; aifs = 2; txop_frames = 3; rate = 0.5 });
  (* Lexicographic (cw, aifs, txop, rate) total order. *)
  let a = S.of_cw 16 and b = S.of_cw 32 in
  Alcotest.(check bool) "cw first" true (S.compare a b < 0);
  Alcotest.(check bool) "aifs second" true
    (S.compare a { a with aifs = 1 } < 0);
  Alcotest.(check bool) "equal reflexive" true (S.equal a (S.of_cw 16))

let test_times_passthrough () =
  let base = Dcf.Timing.of_params params in
  let t = S.times params ~base (S.of_cw 64) in
  Alcotest.(check bool) "degenerate ts passthrough" true
    (Int64.bits_of_float t.ts = Int64.bits_of_float base.ts);
  Alcotest.(check bool) "degenerate tc passthrough" true
    (Int64.bits_of_float t.tc = Int64.bits_of_float base.tc);
  (* A 2-frame TXOP holds the channel longer than one frame but less than
     two independent accesses (SIFS-separated continuation beats a full
     DIFS + preamble cycle). *)
  let t2 = S.times params ~base { (S.of_cw 64) with txop_frames = 2 } in
  Alcotest.(check bool) "burst longer than one frame" true (t2.ts > base.ts);
  Alcotest.(check bool) "burst amortizes overhead" true
    (t2.ts < 2. *. base.ts);
  (* Doubling the PHY rate halves the payload airtime only. *)
  let tr = S.times params ~base { (S.of_cw 64) with rate = 2.0 } in
  Alcotest.(check bool) "rate shortens frames" true (tr.ts < base.ts)

let test_space_membership () =
  let sp = S.edca_space ~aifs_max:2 ~txop_max:2 ~cw_max:256 () in
  Alcotest.(check bool) "member" true
    (S.mem sp { S.cw = 16; aifs = 2; txop_frames = 1; rate = 1.0 });
  Alcotest.(check bool) "aifs above cap" false
    (S.mem sp { S.cw = 16; aifs = 3; txop_frames = 1; rate = 1.0 });
  Alcotest.(check bool) "rate not offered" false
    (S.mem sp { S.cw = 16; aifs = 0; txop_frames = 1; rate = 0.5 });
  Alcotest.(check bool) "rates must include 1" true
    (match
       S.space_validate
         { sp with rates = [| 0.5 |] }
     with
    | Error _ -> true
    | Ok () -> false)

(* {1 Canonicalization (qcheck, satellite: codec + permutation + pins)} *)

let strategy_gen =
  QCheck.map
    (fun (cw, aifs, txop, ri) ->
      { S.cw; aifs; txop_frames = txop; rate = [| 0.5; 1.0; 2.0 |].(ri) })
    QCheck.(
      quad (int_range 1 1024) (int_range 0 4) (int_range 1 4) (int_range 0 2))

let test_codec_roundtrip =
  QCheck.Test.make ~name:"strategy json codec round-trips" ~count:300
    strategy_gen (fun s ->
      match S.of_json (S.to_json s) with
      | Ok s' -> S.equal s s'
      | Error _ -> false)

let test_degenerate_wire_shorthand =
  QCheck.Test.make ~name:"degenerate strategies encode as bare ints"
    ~count:100
    QCheck.(int_range 1 4096)
    (fun w -> S.to_json (S.of_cw w) = J.Int w)

let test_profile_permutation_invariance =
  QCheck.Test.make ~name:"profile permutation-invariant"
    ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 8) strategy_gen) (int_range 0 1000))
    (fun (strategies, salt) ->
      let p = Array.of_list strategies in
      let q = Array.copy p in
      (* Fisher-Yates with a deterministic seed per case. *)
      let rng = Prelude.Rng.create salt in
      for i = Array.length q - 1 downto 1 do
        let j = Prelude.Rng.int rng (i + 1) in
        let t = q.(i) in
        q.(i) <- q.(j);
        q.(j) <- t
      done;
      Macgame.Profile.equal
        (Macgame.Profile.canonical p)
        (Macgame.Profile.canonical q))

let test_fingerprint_pins () =
  (* Pinned FNV-1a values of [S.to_key] renderings.  The oracle's store
     keys spell every multi-knob strategy with [to_key] (and a degenerate
     one as its bare window; test_oracle's "store keys keep their bytes"
     pins whole keys), so an accidental change to the rendering silently
     orphans persisted rows.  If a change here is intentional it must
     come with a store schema bump. *)
  let fingerprint s = Prelude.Util.fnv1a64 (S.to_key s) in
  Alcotest.(check bool) "of_cw 16" true
    (Int64.equal 0x5f51a519490857a9L (fingerprint (S.of_cw 16)));
  Alcotest.(check bool) "multi-knob" true
    (Int64.equal 0x551c74fc8def9f2cL
       (fingerprint { S.cw = 32; aifs = 2; txop_frames = 3; rate = 0.5 }))

(* {1 The widened analytic model} *)

let test_model_degenerate_bit_identity () =
  let cws = [| 16; 64; 64 |] in
  let legacy = Dcf.Model.solve_profile params cws in
  let multi = Dcf.Model.solve_strategies params (Array.map S.of_cw cws) in
  Array.iteri
    (fun i tau ->
      Alcotest.(check bool) (Printf.sprintf "tau %d" i) true
        (Int64.bits_of_float tau = Int64.bits_of_float multi.taus.(i));
      Alcotest.(check bool) (Printf.sprintf "utility %d" i) true
        (Int64.bits_of_float legacy.utilities.(i)
        = Int64.bits_of_float multi.utilities.(i)))
    legacy.taus

let test_model_aifs_asymmetry () =
  (* Everyone on (w=128, aifs=2) except a deviant at aifs=0: skipping the
     defer slots wins channel share — the EDCA priority effect. *)
  let honest = { (S.of_cw 128) with aifs = 2 } in
  let strategies = Array.make 5 honest in
  strategies.(0) <- S.of_cw 128;
  let v = Dcf.Model.solve_strategies params strategies in
  Alcotest.(check bool) "deviant tau higher" true (v.taus.(0) > v.taus.(1));
  Alcotest.(check bool) "deviant utility higher" true
    (v.utilities.(0) > v.utilities.(1));
  (* And honest nodes do worse than in the all-honest profile. *)
  let all_honest = Dcf.Model.solve_strategies params (Array.make 5 honest) in
  Alcotest.(check bool) "honest hurt by deviant" true
    (v.utilities.(1) < all_honest.utilities.(1))

let test_model_txop_gain () =
  let strategies = Array.make 5 (S.of_cw 128) in
  strategies.(0) <- { (S.of_cw 128) with txop_frames = 3 };
  let v = Dcf.Model.solve_strategies params strategies in
  Alcotest.(check bool) "burster goodput higher" true
    (v.goodputs.(0) > v.goodputs.(1));
  Alcotest.(check bool) "burster utility higher" true
    (v.utilities.(0) > v.utilities.(1))

(* {1 Coordinate-descent NE search} *)

let test_best_response_in_space () =
  let oracle = Macgame.Oracle.analytic params in
  let space = S.edca_space ~aifs_max:2 ~txop_max:2 ~cw_max:512 () in
  let profile = Macgame.Profile.uniform ~n:3 ~w:64 in
  let br =
    Macgame.Search.best_response_strategy oracle ~space ~profile ~player:0
  in
  Alcotest.(check bool) "response in space" true (S.mem space br);
  let u s =
    let p = Array.copy profile in
    p.(0) <- s;
    (Macgame.Oracle.payoffs_profile oracle p).(0)
  in
  Alcotest.(check bool) "improves on status quo" true
    (u br >= u profile.(0));
  (* No single-knob improvement left at the fixed point. *)
  List.iter
    (fun s' ->
      if S.mem space s' then
        Alcotest.(check bool) "coordinate-wise optimal" true
          (u s' <= u br +. 1e-12))
    [
      { br with S.cw = Stdlib.max 1 (br.S.cw - 1) };
      { br with S.cw = Stdlib.min 512 (br.S.cw + 1) };
      { br with S.aifs = (br.S.aifs + 1) mod 3 };
      { br with S.txop_frames = 1 + (br.S.txop_frames mod 2) };
    ]

let test_ne_search_capture () =
  (* Banchs-style outcome on (CW, AIFS): the one-shot game converges to
     an asymmetric capture equilibrium — one player at cw_min, the rest
     backed off to silence (also pinned as a paper anchor). *)
  let oracle = Macgame.Oracle.analytic params in
  let space =
    S.edca_space ~aifs_max:2 ~txop_max:1 ~cw_max:params.Dcf.Params.cw_max ()
  in
  let out =
    Macgame.Search.ne_search oracle ~space
      ~initial:(Macgame.Profile.uniform ~n:3 ~w:32)
  in
  Alcotest.(check bool) "converged" true out.converged;
  let captors =
    Array.fold_left
      (fun acc (s : S.t) -> if s.cw = space.cw_min then acc + 1 else acc)
      0 out.equilibrium
  in
  Alcotest.(check int) "exactly one captor" 1 captors;
  Alcotest.(check bool) "losers retreat" true
    (Array.exists (fun (s : S.t) -> s.cw = space.cw_max) out.equilibrium)

let test_ne_search_degenerate_space () =
  (* On the CW-only space the search must stay inside the degenerate
     subspace — no knob invents itself. *)
  let oracle = Macgame.Oracle.analytic params in
  let space = S.edca_space ~aifs_max:0 ~txop_max:1 ~cw_max:256 () in
  let out =
    Macgame.Search.ne_search oracle ~space
      ~initial:(Macgame.Profile.uniform ~n:2 ~w:64)
  in
  Alcotest.(check bool) "profile degenerate" true
    (Macgame.Profile.is_degenerate out.equilibrium)

(* {1 Oracle store: v2 schema, v1 refusal (satellite)} *)

let test_store_keys_are_v2 () =
  let dir = temp_dir () in
  Store.with_store dir (fun store ->
      let oracle = Macgame.Oracle.create ~store params in
      ignore (Macgame.Oracle.payoff_uniform oracle ~n:3 ~w:32);
      ignore
        (Macgame.Oracle.payoffs_profile oracle
           (Macgame.Profile.with_deviant_strategy ~n:3 ~w:64
              ~dev:{ (S.of_cw 16) with aifs = 1 })));
  Store.with_store dir (fun store ->
      let total = ref 0 in
      Store.iter store (fun key ->
          incr total;
          Alcotest.(check bool)
            (Printf.sprintf "key %s carries v2 prefix" key)
            true
            (String.length key >= 10 && String.sub key 0 10 = "oracle|v2|"));
      Alcotest.(check bool) "rows persisted" true (!total >= 2))

let test_store_v1_refused () =
  let dir = temp_dir () in
  Store.with_store dir (fun store ->
      (* A healthy v2 row plus a legacy v1 row: the mixed store must be
         refused loudly, not silently reinterpreted. *)
      let oracle = Macgame.Oracle.create ~store params in
      ignore (Macgame.Oracle.payoff_uniform oracle ~n:3 ~w:32);
      Store.put store ~key:"oracle|v1|params=deadbeef|uniform|n=3|w=32"
        (J.Obj [ ("u", J.Float 1.) ]));
  Store.with_store dir (fun store ->
      match Macgame.Oracle.create ~store params with
      | _ -> Alcotest.fail "v1 row accepted"
      | exception Store.Corrupt msg ->
          Alcotest.(check bool) "refusal names the v1 schema" true
            (let has needle =
               let nh = String.length msg and nn = String.length needle in
               let rec go i =
                 i + nn <= nh && (String.sub msg i nn = needle || go (i + 1))
               in
               go 0
             in
             has "v1" && has "oracle|v2"))

(* {1 Deviation detection (satellite: pinned CW rates + AIFS/TXOP)} *)

let test_cw_detection_rates_pinned () =
  (* Fixed seed matrix: the empirical backoff-counting detector at
     w_exp = 64, beta = 0.9, 20 samples, 2000 trials, seed 7.  Exact
     values — the estimator consumes a deterministic RNG stream, so any
     drift here is a behaviour change in the estimator or the RNG. *)
  List.iter
    (fun (w_true, expected) ->
      let rng = Prelude.Rng.create 7 in
      let r =
        Macgame.Detection.empirical_rates ~rng ~trials:2000 ~w_true ~w_exp:64
          ~samples:20 ~beta:0.9
      in
      check_close ~eps:1e-12 (Printf.sprintf "w_true=%d" w_true) expected r)
    [ (16, 1.); (32, 1.); (48, 0.9415); (64, 0.2135) ];
  (* And the closed forms stay within Monte-Carlo distance of them. *)
  List.iter
    (fun w_true ->
      let rng = Prelude.Rng.create 7 in
      let emp =
        Macgame.Detection.empirical_rates ~rng ~trials:2000 ~w_true ~w_exp:64
          ~samples:20 ~beta:0.9
      in
      let closed =
        Macgame.Detection.detection_rate ~w_true ~w_exp:64 ~samples:20
          ~beta:0.9
      in
      Alcotest.(check bool)
        (Printf.sprintf "closed form near empirical, w_true=%d" w_true)
        true
        (Float.abs (emp -. closed) < 0.04))
    [ 16; 32; 48; 64 ]

let test_aifs_detection () =
  (* The AIFS estimator's closed form agrees with its Monte-Carlo rate. *)
  (* With w = 32 the idle-gap noise has stddev sqrt((w^2-1)/12/k), about
     0.92 slots at k = 100 — so a 2-slot margin keeps honest nodes under
     the 5% false-positive line while still catching an aifs=0 cheat. *)
  let rng = Prelude.Rng.create 11 in
  let emp =
    Macgame.Detection.empirical_aifs_rate ~rng ~trials:2000 ~w:32 ~aifs_true:0
      ~aifs_exp:3 ~samples:100 ~delta:2.
  in
  let closed =
    Macgame.Detection.aifs_detection_rate ~w:32 ~aifs_true:0 ~aifs_exp:3
      ~samples:100 ~delta:2.
  in
  Alcotest.(check bool) "closed near empirical" true
    (Float.abs (emp -. closed) < 0.05);
  Alcotest.(check bool) "cheat caught" true (closed > 0.5);
  let fp =
    Macgame.Detection.aifs_false_positive_rate ~w:32 ~aifs_exp:3 ~samples:100
      ~delta:2.
  in
  Alcotest.(check bool) "honest rarely flagged" true (fp < 0.05);
  (* More samples sharpen the trigger. *)
  Alcotest.(check bool) "detection grows with samples" true
    (Macgame.Detection.aifs_detection_rate ~w:32 ~aifs_true:1 ~aifs_exp:3
       ~samples:100 ~delta:1.
    > Macgame.Detection.aifs_detection_rate ~w:32 ~aifs_true:1 ~aifs_exp:3
        ~samples:10 ~delta:1.)

let test_txop_detection_and_punishment () =
  check_close "honest txop never flagged" 0.
    (Macgame.Detection.txop_detection_rate ~txop_true:2 ~txop_exp:2
       ~p_observe:0.5 ~accesses:100);
  check_close "coverage closed form"
    (1. -. (0.5 ** 10.))
    (Macgame.Detection.txop_detection_rate ~txop_true:4 ~txop_exp:2
       ~p_observe:0.5 ~accesses:10);
  (* Banchs-style punishment sizing: delta = 0.9, one-stage gain 1 against
     per-stage loss 1 needs 2 punishment stages (0.9 < 1 <= 0.9 + 0.81). *)
  Alcotest.(check (option int)) "two stages" (Some 2)
    (Macgame.Detection.punishment_stages ~gain:1. ~loss:1. ~discount:0.9);
  Alcotest.(check (option int)) "nothing to deter" (Some 0)
    (Macgame.Detection.punishment_stages ~gain:0. ~loss:1. ~discount:0.9);
  Alcotest.(check (option int)) "impatient players cannot be deterred" None
    (Macgame.Detection.punishment_stages ~gain:10. ~loss:1. ~discount:0.5);
  (* At delta/(1-delta) = gain/loss even perpetual punishment only breaks
     even, which does not deter.  delta = 0.5 keeps the ratio exact in
     floating point (0.5/0.5 = 1), so the boundary is testable. *)
  Alcotest.(check (option int)) "break-even is not deterrence" None
    (Macgame.Detection.punishment_stages ~gain:1. ~loss:1. ~discount:0.5)

let test_observer_multi_knob_estimators () =
  let rng = Prelude.Rng.create 3 in
  let acc = ref 0. in
  let trials = 500 in
  for _ = 1 to trials do
    acc := !acc +. Macgame.Observer.aifs_estimate ~rng ~w:32 ~aifs:2 ~samples:20
  done;
  let mean = !acc /. float_of_int trials in
  Alcotest.(check bool) "aifs estimator unbiased" true
    (Float.abs (mean -. 2.) < 0.1);
  check_close "aifs stddev formula"
    (sqrt ((1024. -. 1.) /. 12. /. 20.))
    (Macgame.Observer.aifs_estimate_stddev ~w:32 ~samples:20);
  Alcotest.(check int) "certain observation reveals txop" 4
    (Macgame.Observer.txop_longest_burst ~rng ~txop:4 ~p_observe:1. ~accesses:1);
  Alcotest.(check int) "blind observer sees nothing" 0
    (Macgame.Observer.txop_longest_burst ~rng ~txop:4 ~p_observe:0. ~accesses:50)

(* {1 Simulators off the degenerate subspace} *)

let test_slotted_aifs_slows_access () =
  let n = 5 in
  let cws = Array.make n 64 in
  let config =
    { Netsim.Slotted.params; cws; duration = 2.; seed = 9 }
  in
  let plain = Netsim.Slotted.run config in
  let deferred =
    Netsim.Slotted.run
      ~strategies:(Array.make n { (S.of_cw 64) with aifs = 3 })
      config
  in
  let attempts r =
    Array.fold_left
      (fun acc (s : Netsim.Slotted.node_stats) -> acc + s.attempts)
      0 r.Netsim.Slotted.per_node
  in
  Alcotest.(check bool) "AIFS defers access" true
    (attempts deferred < attempts plain)

let test_slotted_txop_conservation () =
  let n = 4 in
  let cws = Array.make n 32 in
  let r =
    Netsim.Slotted.run
      ~strategies:(Array.make n { (S.of_cw 32) with txop_frames = 3 })
      { params; cws; duration = 2.; seed = 5 }
  in
  Array.iteri
    (fun i (s : Netsim.Slotted.node_stats) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d delivers whole bursts" i)
        0 (s.successes mod 3);
      Alcotest.(check bool) "accesses bounded by attempts" true
        ((s.successes / 3) + s.collisions <= s.attempts))
    r.per_node;
  Alcotest.(check bool) "something delivered" true
    (Array.exists (fun (s : Netsim.Slotted.node_stats) -> s.successes > 0)
       r.per_node)

let test_spatial_event_core_matches_reference_multi_knob () =
  (* The dual-driver guarantee must survive off the degenerate subspace:
     AIFS defer re-arming and TXOP bursts implemented twice (slot-scan
     reference vs event core) must agree bit for bit. *)
  let n = 5 in
  let adjacency =
    Array.init n (fun i -> [ (i + 1) mod n; (i + n - 1) mod n ])
  in
  let cws = [| 16; 32; 32; 64; 32 |] in
  let strategies =
    [|
      { (S.of_cw 16) with aifs = 1 };
      { (S.of_cw 32) with txop_frames = 2 };
      S.of_cw 32;
      { S.cw = 64; aifs = 2; txop_frames = 3; rate = 1.0 };
      { (S.of_cw 32) with rate = 2.0 };
    |]
  in
  let quiet () = Telemetry.Registry.create () in
  List.iter
    (fun (label, p) ->
      let config =
        { Netsim.Spatial.params = p; adjacency; cws; duration = 2.; seed = 13 }
      in
      let fast =
        Netsim.Spatial.run ~telemetry:(quiet ()) ~strategies config
      in
      let slow =
        Netsim.Spatial.run_reference ~telemetry:(quiet ()) ~strategies config
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: event core = reference (multi-knob)" label)
        true
        (Netsim.Spatial.equal_result fast slow))
    [ ("basic", params); ("rts", Dcf.Params.rts_cts) ]

let test_strategies_must_agree_with_cws () =
  let config =
    { Netsim.Slotted.params; cws = [| 16; 16 |]; duration = 0.1; seed = 1 }
  in
  Alcotest.check_raises "cw mismatch rejected"
    (Invalid_argument "Slotted.run: strategies disagree with cws") (fun () ->
      ignore (Netsim.Slotted.run ~strategies:[| S.of_cw 16; S.of_cw 32 |] config))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "strategy_space"
    [
      ( "record",
        [
          Alcotest.test_case "degenerate + validate" `Quick
            test_degenerate_and_validate;
          Alcotest.test_case "keys and order" `Quick test_keys_and_order;
          Alcotest.test_case "times passthrough" `Quick test_times_passthrough;
          Alcotest.test_case "space membership" `Quick test_space_membership;
        ] );
      ( "canonical",
        qsuite
          [
            test_codec_roundtrip;
            test_degenerate_wire_shorthand;
            test_profile_permutation_invariance;
          ]
        @ [ Alcotest.test_case "fingerprint pins" `Quick test_fingerprint_pins ]
      );
      ( "model",
        [
          Alcotest.test_case "degenerate bit-identity" `Quick
            test_model_degenerate_bit_identity;
          Alcotest.test_case "aifs asymmetry" `Quick test_model_aifs_asymmetry;
          Alcotest.test_case "txop gain" `Quick test_model_txop_gain;
        ] );
      ( "search",
        [
          Alcotest.test_case "best response in space" `Quick
            test_best_response_in_space;
          Alcotest.test_case "capture equilibrium" `Quick test_ne_search_capture;
          Alcotest.test_case "degenerate space stays degenerate" `Quick
            test_ne_search_degenerate_space;
        ] );
      ( "store",
        [
          Alcotest.test_case "v2 key schema" `Quick test_store_keys_are_v2;
          Alcotest.test_case "v1 rows refused" `Quick test_store_v1_refused;
        ] );
      ( "detection",
        [
          Alcotest.test_case "pinned CW rates" `Quick
            test_cw_detection_rates_pinned;
          Alcotest.test_case "aifs detector" `Quick test_aifs_detection;
          Alcotest.test_case "txop + punishment" `Quick
            test_txop_detection_and_punishment;
          Alcotest.test_case "observer estimators" `Quick
            test_observer_multi_knob_estimators;
        ] );
      ( "netsim",
        [
          Alcotest.test_case "aifs slows access" `Quick
            test_slotted_aifs_slows_access;
          Alcotest.test_case "txop conservation" `Quick
            test_slotted_txop_conservation;
          Alcotest.test_case "event core = reference off-degenerate" `Quick
            test_spatial_event_core_matches_reference_multi_knob;
          Alcotest.test_case "strategy/cw agreement" `Quick
            test_strategies_must_agree_with_cws;
        ] );
    ]
