type policy = Exact | Toleranced of float

type snapshot = {
  name : string;
  tier : Check.tier;
  policy : policy;
  generate : unit -> Telemetry.Jsonx.t list;
}

let bless_hint =
  "CONFORMANCE_BLESS=1 dune exec bin/macgame_cli.exe -- conformance"

(* {2 Generators}

   Everything below is a pure function of constants in this file — fixed
   seeds, fixed grids — which is what makes blessing reproducible. *)

open Telemetry.Jsonx

let floats arr = List (Array.to_list (Array.map (fun x -> Float x) arr))

let ints arr = List (Array.to_list (Array.map (fun x -> Int x) arr))

let analytic_equilibrium () =
  List.concat_map
    (fun (label, params) ->
      let oracle = Macgame.Oracle.analytic params in
      List.map
        (fun n ->
          let w_star = Macgame.Equilibrium.efficient_cw oracle ~n in
          let w_c0 = Macgame.Equilibrium.break_even_cw oracle ~n in
          let ne = Macgame.Equilibrium.ne_set oracle ~n in
          let lo, hi =
            Macgame.Equilibrium.robust_range oracle ~n ~fraction:0.95
          in
          let view = Macgame.Oracle.uniform oracle ~n ~w:w_star in
          Obj
            [
              ("id", String (Printf.sprintf "%s.n%d" label n));
              ("w_star", Int w_star);
              ("w_c0", Int w_c0);
              ("ne_lo", Int ne.Macgame.Equilibrium.w_lo);
              ("ne_hi", Int ne.Macgame.Equilibrium.w_hi);
              ("robust_lo", Int lo);
              ("robust_hi", Int hi);
              ("tau", Float view.Macgame.Oracle.tau);
              ("p", Float view.Macgame.Oracle.p);
              ("utility", Float view.Macgame.Oracle.utility);
              ("throughput", Float view.Macgame.Oracle.throughput);
              ("slot_time", Float view.Macgame.Oracle.slot_time);
            ])
        [ 2; 5; 10; 20; 50 ])
    [ ("basic", Dcf.Params.default); ("rts", Dcf.Params.rts_cts) ]

let slotted_record ~id ?(bianchi_ticks = true) ?retry_limit ?(per = 0.)
    ?(duration = 2.) ?strategies ~params ~cws ~seed () =
  let result =
    Netsim.Slotted.run ~bianchi_ticks ?retry_limit ~per ?strategies
      { Netsim.Slotted.params; cws; duration; seed }
  in
  let per_node f =
    Array.map f result.Netsim.Slotted.per_node
  in
  let strategy_fields =
    (* Per-node rates pin the TXOP frame counts and per-rate payloads that
       the counters above do not show. *)
    match strategies with
    | None -> []
    | Some _ ->
        [
          ( "payoff_rates",
            floats
              (per_node (fun (s : Netsim.Slotted.node_stats) -> s.payoff_rate))
          );
          ( "throughputs",
            floats
              (per_node (fun (s : Netsim.Slotted.node_stats) -> s.throughput))
          );
        ]
  in
  let counters =
    [
      ("id", String id);
      ("slots", Int result.slots);
      ( "attempts",
        ints (per_node (fun (s : Netsim.Slotted.node_stats) -> s.attempts)) );
      ( "successes",
        ints (per_node (fun (s : Netsim.Slotted.node_stats) -> s.successes)) );
      ( "collisions",
        ints (per_node (fun (s : Netsim.Slotted.node_stats) -> s.collisions)) );
      ("drops", ints (per_node (fun (s : Netsim.Slotted.node_stats) -> s.drops)));
      ("total_throughput", Float result.total_throughput);
      ("welfare_rate", Float result.welfare_rate);
      ("idle_fraction", Float result.airtime.idle_fraction);
      ("success_fraction", Float result.airtime.success_fraction);
      ("collision_fraction", Float result.airtime.collision_fraction);
      ("error_fraction", Float result.airtime.error_fraction);
    ]
  in
  Obj (counters @ strategy_fields)

let slotted_sim () =
  [
    slotted_record ~id:"basic.n5.w79.seed42" ~params:Dcf.Params.default
      ~cws:(Array.make 5 79) ~seed:42 ();
    slotted_record ~id:"rts.n5.w16.seed43" ~params:Dcf.Params.rts_cts
      ~cws:(Array.make 5 16) ~seed:43 ();
    slotted_record ~id:"basic.per20.retry6.seed44" ~per:0.2 ~retry_limit:6
      ~params:Dcf.Params.default ~cws:(Array.make 5 79) ~seed:44 ();
    slotted_record ~id:"basic.realfreeze.n5.w79.seed45" ~bianchi_ticks:false
      ~params:Dcf.Params.default ~cws:(Array.make 5 79) ~seed:45 ();
  ]

(* Twenty nodes cycling through (window, AIFS) = (32, 0), (64, 1),
   (128, 2) and TXOP 1-3, so every (AIFS, TXOP) pair occurs; retry limit 3
   adds drops. *)
let slotted_strategies () =
  let n = 20 in
  let strategies =
    Array.init n (fun i ->
        {
          (Dcf.Strategy_space.of_cw (32 lsl (i mod 3))) with
          aifs = i mod 3;
          txop_frames = 1 + (i / 3 mod 3);
        })
  in
  let cws =
    Array.map (fun (s : Dcf.Strategy_space.t) -> s.cw) strategies
  in
  [
    slotted_record ~id:"basic.n20.aifs.txop.retry3.seed46" ~retry_limit:3
      ~duration:5. ~strategies ~params:Dcf.Params.default ~cws ~seed:46 ();
    slotted_record ~id:"basic.realfreeze.n20.aifs.txop.retry3.per10.seed47"
      ~bianchi_ticks:false ~retry_limit:3 ~per:0.1 ~duration:5. ~strategies
      ~params:Dcf.Params.default ~cws ~seed:47 ();
  ]

let unsaturated_record ~id ~params ~cws ~arrival_rates ~seed =
  let result =
    Netsim.Unsaturated.run
      { Netsim.Unsaturated.params; cws; arrival_rates; duration = 10.; seed }
  in
  let per_node f = Array.map f result.Netsim.Unsaturated.per_node in
  Obj
    [
      ("id", String id);
      ("arrival_rates", floats arrival_rates);
      ("time", Float result.time);
      ("total_delivered", Int result.total_delivered);
      ("welfare_rate", Float result.welfare_rate);
      ( "arrivals",
        ints (per_node (fun (s : Netsim.Unsaturated.node_stats) -> s.arrivals))
      );
      ( "delivered",
        ints
          (per_node (fun (s : Netsim.Unsaturated.node_stats) -> s.delivered)) );
      ( "backlog",
        ints (per_node (fun (s : Netsim.Unsaturated.node_stats) -> s.backlog))
      );
      ( "mean_sojourn",
        floats
          (per_node (fun (s : Netsim.Unsaturated.node_stats) -> s.mean_sojourn))
      );
      ( "mean_queue_length",
        floats
          (per_node
             (fun (s : Netsim.Unsaturated.node_stats) -> s.mean_queue_length))
      );
      ( "busy_fraction",
        floats
          (per_node
             (fun (s : Netsim.Unsaturated.node_stats) -> s.busy_fraction)) );
      ( "payoff_rates",
        floats
          (per_node (fun (s : Netsim.Unsaturated.node_stats) -> s.payoff_rate))
      );
    ]

(* Ten nodes on W = 128 below (0.5) and above (1.2) the per-node
   saturation rate, then mixed windows and loads with one silent node. *)
let unsaturated_sim () =
  let params = Dcf.Params.default in
  let saturation = Netsim.Unsaturated.saturation_rate params ~n:10 ~w:128 in
  List.map
    (fun (rho, seed) ->
      unsaturated_record
        ~id:(Printf.sprintf "basic.n10.w128.load%g.seed%d" rho seed)
        ~params ~cws:(Array.make 10 128)
        ~arrival_rates:(Array.make 10 (rho *. saturation))
        ~seed)
    [ (0.5, 48); (1.2, 49) ]
  @ [
      unsaturated_record ~id:"basic.mixed.n6.zero-rate.seed50" ~params
        ~cws:[| 16; 32; 64; 128; 256; 512 |]
        ~arrival_rates:
          (Array.map
             (fun rho -> rho *. saturation)
             [| 0.; 0.3; 0.9; 1.5; 0.6; 2.0 |])
        ~seed:50;
    ]

let chain n =
  Array.init n (fun i ->
      (if i > 0 then [ i - 1 ] else []) @ if i < n - 1 then [ i + 1 ] else [])

let clique n = Array.init n (fun i -> List.filter (( <> ) i) (List.init n Fun.id))

let spatial_record ~id ~params ~adjacency ~cws ~seed =
  let result =
    Netsim.Spatial.run
      { Netsim.Spatial.params; adjacency; cws; duration = 1.; seed }
  in
  let per_node f = Array.map f result.Netsim.Spatial.per_node in
  Obj
    [
      ("id", String id);
      ("delivered", Int result.delivered);
      ("delivered_late", Int result.delivered_late);
      ("welfare_rate", Float result.welfare_rate);
      ( "attempts",
        ints (per_node (fun (s : Netsim.Spatial.node_stats) -> s.attempts)) );
      ( "successes",
        ints (per_node (fun (s : Netsim.Spatial.node_stats) -> s.successes)) );
      ( "hidden_failures",
        ints
          (per_node (fun (s : Netsim.Spatial.node_stats) -> s.hidden_failures))
      );
      ( "payoff_rates",
        floats
          (per_node (fun (s : Netsim.Spatial.node_stats) -> s.payoff_rate)) );
      ("busy_fraction", Float result.airtime.busy_fraction);
      ("success_fraction", Float result.airtime.success_fraction);
      ("collision_fraction", Float result.airtime.collision_fraction);
      ("overlap_fraction", Float result.airtime.overlap_fraction);
    ]

let spatial_sim () =
  [
    spatial_record ~id:"chain.rts.n6.seed7" ~params:Dcf.Params.rts_cts
      ~adjacency:(chain 6) ~cws:(Array.make 6 32) ~seed:7;
    spatial_record ~id:"clique.basic.n4.seed9" ~params:Dcf.Params.default
      ~adjacency:(clique 4) ~cws:(Array.make 4 64) ~seed:9;
  ]

let multihop_quasi () =
  (* An 8-node ring: deterministic, connected, every node degree 2. *)
  let ring = Array.init 8 (fun i -> [ (i + 7) mod 8; (i + 1) mod 8 ]) in
  let graph = Macgame.Multihop.create ring in
  let oracle = Macgame.Oracle.analytic Dcf.Params.rts_cts in
  let q = Macgame.Multihop.quasi_optimality oracle graph in
  [
    Obj
      [
        ("id", String "ring8.rts");
        ("w_m", Int q.Macgame.Multihop.w_m);
        ("w_global_opt", Int q.w_global_opt);
        ("global_at_ne", Float q.global_at_ne);
        ("global_opt", Float q.global_opt);
        ("global_ratio", Float q.global_ratio);
        ("min_local_ratio", Float q.min_local_ratio);
      ];
  ]

let oracle_backends () =
  let sim =
    { Macgame.Oracle.duration = 5.; replicates = 2; seed = 11 }
  in
  List.map
    (fun (label, params, n, w) ->
      let analytic = Macgame.Oracle.analytic params in
      let slotted =
        Macgame.Oracle.create ~backend:(Macgame.Oracle.Sim_slotted sim) params
      in
      Obj
        [
          ("id", String label);
          ("n", Int n);
          ("w", Int w);
          ( "utility_analytic",
            Float (Macgame.Oracle.payoff_uniform analytic ~n ~w) );
          ( "utility_slotted",
            Float (Macgame.Oracle.payoff_uniform slotted ~n ~w) );
        ])
    [
      ("basic.n5.w79", Dcf.Params.default, 5, 79);
      ("rts.n5.w16", Dcf.Params.rts_cts, 5, 16);
    ]

(* Heterogeneous class solves.  Every input is a closed form of its
   index: class j of a c-class problem has window
   16 + (181·j + 7·c) mod 1008 (distinct for j < 1008) and 1 + j mod 3
   members. *)
let class_window ~c j = 16 + (((181 * j) + (7 * c)) mod 1008)
let cw_classes c = List.init c (fun j -> (class_window ~c j, 1 + (j mod 3)))

let with_stage m = { Dcf.Params.default with max_backoff_stage = m }

let class_record id (sol : Dcf.Solver.class_solution) =
  Obj
    [
      ("id", String id);
      ("taus", List (List.map (fun (tau, _) -> Float tau) sol.class_pairs));
      ("ps", List (List.map (fun (_, p) -> Float p) sol.class_pairs));
      ("iterations", Int sol.iterations);
      ("converged", Bool sol.converged);
    ]

let node_record id (sol : Dcf.Solver.solution) =
  Obj
    [
      ("id", String id);
      ("taus", floats sol.taus);
      ("ps", floats sol.ps);
      ("iterations", Int sol.iterations);
      ("converged", Bool sol.converged);
    ]

(* AIFS 0-2 and TXOP 1-2 cycle over the classes; the rate varies too,
   although only CW and AIFS reach the fixed point. *)
let strategy_classes ?(w_of = fun ~c j -> class_window ~c j) c =
  List.init c (fun j ->
      ( {
          (Dcf.Strategy_space.of_cw (w_of ~c j)) with
          aifs = j mod 3;
          txop_frames = 1 + (j mod 2);
          rate = (if j mod 4 = 3 then 0.5 else 1.0);
        },
        1 + (j mod 3) ))

let class_solver () =
  let classes =
    List.concat_map
      (fun c ->
        List.map
          (fun m ->
            class_record
              (Printf.sprintf "classes.c%d.m%d" c m)
              (Dcf.Solver.solve_classes (with_stage m) (cw_classes c)))
          [ 5; 3 ])
      [ 2; 5; 17; 32; 50 ]
    @ [
        class_record "classes.c5.m0"
          (Dcf.Solver.solve_classes (with_stage 0) (cw_classes 5));
        class_record "classes.c17.max_iter2"
          (Dcf.Solver.solve_classes ~max_iter:2 Dcf.Params.default
             (cw_classes 17));
      ]
  in
  let strategies =
    List.map
      (fun c ->
        class_record
          (Printf.sprintf "strategy_classes.c%d" c)
          (Dcf.Solver.solve_strategy_classes Dcf.Params.default
             (strategy_classes c)))
      [ 3; 8; 20 ]
  in
  (* A sweep column: class 0's window steps 40, 48, ..., 160 beside five
     fixed strategy classes; the last four points drop the final class,
     so the class shape changes once. *)
  let column =
    Array.init 16 (fun k ->
        let fixed = List.tl (strategy_classes 6) in
        let fixed =
          if k < 12 then fixed else List.filteri (fun i _ -> i < 4) fixed
        in
        (Dcf.Strategy_space.of_cw (40 + (8 * k)), 2) :: fixed)
  in
  (* Hints for two of five windows; 700's is outside (0, 1), so ignored. *)
  let cws = [| 700; 32; 48; 100; 48; 300; 100; 700; 100 |] in
  let tau_hint w =
    match w with
    | 48 -> Some 0.05
    | 300 -> Some 0.01
    | 700 -> Some 1.5
    | _ -> None
  in
  let profiles =
    [
      node_record "profile.hint.newton"
        (Dcf.Solver.solve_profile ~tau_hint Dcf.Params.default cws);
      (let s = Dcf.Model.solve_profile ~p_hn:0.8 Dcf.Params.rts_cts cws in
       Obj
         [
           ("id", String "model.profile.rts.p_hn0.8");
           ("taus", floats s.taus);
           ("ps", floats s.ps);
           ("utilities", floats s.utilities);
           ("slot_time", Float s.metrics.slot_time);
           ("converged", Bool s.converged);
         ]);
    ]
  in
  (* Cold oracle rows: a fresh oracle per profile, classes of 1, 2 and 3
     nodes, profiles in unsorted order. *)
  let outcome_record id (payoffs, tier) =
    Obj
      [
        ("id", String id);
        ("tier", String (Macgame.Oracle.tier_name tier));
        ("payoffs", floats payoffs);
      ]
  in
  let payoff_record id ?p_hn params profile =
    outcome_record id
      (Macgame.Oracle.payoffs_profile_outcome
         (Macgame.Oracle.create ?p_hn params)
         profile)
  in
  let nodes_of classes =
    Array.of_list
      (List.concat_map (fun (s, k) -> List.init k (fun _ -> s)) classes)
  in
  let of_classes c =
    Macgame.Profile.of_cws
      (Array.of_list
         (List.rev
            (List.concat_map
               (fun (w, k) -> List.init k (fun _ -> w))
               (cw_classes c))))
  in
  let oracle_rows =
    [
      payoff_record "oracle.small" Dcf.Params.default
        (Macgame.Profile.of_cws [| 40; 24; 16; 40; 24; 40 |]);
      payoff_record "oracle.c17" Dcf.Params.default (of_classes 17);
      payoff_record "oracle.c32" Dcf.Params.default (of_classes 32);
      payoff_record "oracle.c50.m3" (with_stage 3) (of_classes 50);
      payoff_record "oracle.rts.p_hn0.7" ~p_hn:0.7 Dcf.Params.rts_cts
        (of_classes 9);
      payoff_record "oracle.strategies" Dcf.Params.default
        (nodes_of (strategy_classes ~w_of:(fun ~c:_ j -> 24 + (16 * j)) 7));
    ]
  in
  (* Batch contexts: each column runs in order through one [Oracle.batch]
     on a fresh analytic oracle, so every point after the first starts
     from the class τs solved before it.  The multi-knob column is the
     sweep column above as node profiles; the CW-only one steps a deviant
     window beside fixed ones.  Both analytic branches of the oracle's
     profile solve thus run with a hint, and the hint order sets the low
     bits pinned here. *)
  let batch_column label profiles =
    let oracle = Macgame.Oracle.analytic Dcf.Params.default in
    let batch = Macgame.Oracle.batch oracle in
    List.mapi
      (fun k profile ->
        outcome_record
          (Printf.sprintf "oracle.batch.%sk%02d" label k)
          (Macgame.Oracle.payoffs_profile_outcome ~batch oracle profile))
      profiles
  in
  let oracle_batch =
    batch_column "" (Array.to_list (Array.map nodes_of column))
    @ batch_column "cw."
        (List.init 8 (fun k ->
             Macgame.Profile.of_cws
               [| 64; 128; 24 + (4 * k); 64; 256; 128; 128 |]))
  in
  classes @ strategies @ profiles @ oracle_rows @ oracle_batch

(* {2 The serving wire}

   Request lines and the service's reply lines, byte for byte, each
   ["elapsed_ms"] value masked: what [Request.of_line] accepts or refuses
   and what [Reply.to_line] writes.  One fresh analytic service answers
   the lines in order, so a first touch is cold and a repeat memo. *)

let serve_memo_mix =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun w ->
          [
            Printf.sprintf {|{"op":"tau","n":%d,"w":%d}|} n w;
            Printf.sprintf {|{"op":"welfare","n":%d,"w":%d}|} n w;
          ])
        [ 16; 32; 64; 128; 256 ])
    [ 2; 5; 10; 20 ]
  @ [
      {|{"op":"payoff","profile":[16,32,32,64]}|};
      {|{"op":"payoff","profile":[32,32,32,64,128]}|};
    ]

let payoff_line entries =
  Printf.sprintf {|{"op":"payoff","profile":[%s]}|} (String.concat "," entries)

let tau_batch members =
  Printf.sprintf {|{"op":"batch","requests":[%s]}|}
    (String.concat ","
       (List.init members (fun _ -> {|{"op":"tau","n":5,"w":32}|})))

(* The serve test's parse-error lines, in its order. *)
let parse_error_lines =
  [
    {|not json at all|}; {||}; {|{"op":"tau","n":5,"w":32|}; {|[1,2]|};
    {|{"n":5,"w":32}|}; {|{"op":7,"n":5,"w":32}|}; {|{"op":"frobnicate"}|};
    {|{"op":"tau","n":5}|}; {|{"op":"tau","w":32}|};
    {|{"op":"tau","n":"5","w":32}|}; {|{"op":"tau","n":5.0,"w":32}|};
    {|{"op":"tau","n":0,"w":32}|}; {|{"op":"tau","n":5,"w":-1}|};
    {|{"op":"tau","n":5,"w":true}|}; {|{"op":"welfare","n":5}|};
    {|{"op":"welfare","n":-3,"w":32}|}; {|{"op":"ne"}|}; {|{"op":"ne","n":0}|};
    {|{"op":"ne","n":null}|}; {|{"op":"payoff"}|};
    {|{"op":"payoff","profile":[]}|}; {|{"op":"payoff","profile":{"cw":16}}|};
    {|{"op":"payoff","profile":[16,"x"]}|};
    {|{"op":"payoff","profile":[16,0]}|};
    {|{"op":"payoff","profile":[16,{"cw":16,"aifs":-1}]}|};
    {|{"op":"payoff","profile":[{"aifs":1}]}|};
    {|{"op":"tau","n":5,"w":32,"deadline_ms":"soon"}|};
    {|{"op":"tau","n":5,"w":32,"deadline_ms":-1}|}; {|{"op":"batch"}|};
    {|{"op":"batch","requests":[]}|};
    {|{"op":"batch","requests":{"op":"tau"}}|};
    {|{"op":"batch","requests":[{"op":"batch","requests":[]}]}|};
    {|{"op":"batch","requests":[{"op":"tau","n":5,"w":32},{"op":"tau"}]}|};
    {|{"op":"batch","requests":[{"op":"tau","n":0},{"op":"nope"}]}|};
    {|{"op":"batch","requests":[{"op":"ne","n":5,"deadline_ms":"x"}]}|};
    {|{"op":"nope","n":0,"w":0,"deadline_ms":-5}|};
    {|{"n":0,"w":0,"deadline_ms":-5}|};
    {|{"op":"batch","requests":[{"op":"tau"}],"deadline_ms":"late"}|};
    {|{"op":"nope","n":0,"w":0}|}; {|{"op":5,"n":0,"w":0}|};
    {|{"op":"tau","n":0,"w":0}|}; {|{"op":"tau","n":"x","w":"y"}|};
    {|{"op":"welfare","w":0}|}; {|{"op":"tau","n":5,"w":0}|};
    {|{"op":"tau","n":0,"w":32,"n":5}|};
    {|{"op":"welfare","n":4611686018427387903,"w":32}|};
    {|{"op":"tau","n":5,"w":4611686018427387903}|};
    {|{"op":"tau","n":1000000000,"w":1000000000}|};
    {|{"op":"tau","n":10001,"w":32}|}; {|{"op":"ne","n":10001}|};
    {|{"op":"welfare","n":5,"w":1048577}|};
    payoff_line (List.init 10_001 (fun _ -> "16"));
    payoff_line [ "16"; {|{"cw":1048577,"aifs":1}|} ];
    tau_batch 1_025;
  ]

(* Every op; ids of every JSON kind; escaped, repeated and unknown keys;
   whitespace; extreme integers; malformed JSON; deadlines 0 and 1e9. *)
let wire_lines =
  let ids =
    [ "null"; "true"; "false"; "0"; "-1"; "4611686018427387903";
      "-4611686018427387904"; "9223372036854775808"; "1.5"; "-0.0"; "1e300";
      "2.5e-8"; {|""|}; {|"req-9"|};
      {|"q\"b\\s\/l\n\té😀\u0001"|}; "[]"; {|[1,[2,"x"],{}]|};
      "{}"; {|{"a":{"b":null},"c":[true,1.25]}|} ]
  in
  List.map
    (fun id -> Printf.sprintf {|{"id":%s,"op":"tau","n":5,"w":64}|} id)
    ids
  @ [
      {|{"op":"ne","n":2}|};
      {|{"id":4,"op":"ne","n":3}|};
      {|{"id":5,"op":"ne","n":2}|};
      {|{"op":"payoff","profile":[16,{"cw":32,"aifs":2,"txop":3},{"cw":48,"rate":0.5},64]}|};
      {|{"op":"payoff","profile":[{"cw":64,"aifs":1,"txop":2,"rate":2}]}|};
      {|{"op":"payoff","profile":[{"txop":1,"cw":32},{"rate":1,"aifs":0,"cw":32}]}|};
      {|{"op":"payoff","profile":[16,{"cw":16,"rate":0}]}|};
      {|{"op":"payoff","profile":[16,{"cw":16,"txop":0}]}|};
      {|{"op":"payoff","profile":[16,{"cw":"16"}]}|};
      {|{"op":"payoff","profile":[16,{"cw":16,"aifs":1.5}]}|};
      {|{"op":"payoff","profile":[16,{"cw":16,"rate":"x"}]}|};
      {|{"op":"payoff","profile":[16,16.0]}|};
      {|{"op":"payoff","profile":[16,-4611686018427387904]}|};
      {|{"op":"payoff","profile":[1048577,"x"]}|};
      {|{"op":"payoff","profile":"wide"}|};
      (* Escaped keys and values. *)
      {|{"\u006fp":"tau","n":5,"w":64}|};
      {|{"op":"t\u0061u","\u006e":5,"w":64}|};
      {|{"op":"p\u0061yoff","pr\u006ffile":[16,32,32,64]}|};
      {|{"op":"tau","n":5,"w":64,"id":"a\/b"}|};
      {|{"op":"tau","n":5,"w\u0000":64}|};
      {|{"op":"tau\u0000","n":5,"w":64}|};
      {|{"op":"payoff","profile":[16,{"\u0063w":32}]}|};
      {|{"op":"b\u0061tch","re\u0071uests":[{"op":"ne","n":2}]}|};
      (* Repeated keys: the first counts. *)
      {|{"op":"tau","op":"ne","n":5,"w":64,"n":6}|};
      {|{"id":1,"id":2,"op":"welfare","n":5,"w":64}|};
      {|{"op":"tau","n":"x","w":64,"n":5}|};
      {|{"op":"payoff","profile":[16,32],"profile":"x"}|};
      {|{"op":"batch","requests":[{"op":"tau","n":5,"w":64}],"requests":[]}|};
      (* Unknown keys, skipped whatever they hold. *)
      {|{"op":"tau","n":5,"w":64,"extra":[1,{"x":[null,"y"]}],"zz":null}|};
      {|{"why":{"op":"ne"},"op":"welfare","n":5,"w":64,"requests":[1]}|};
      {|{"op":"tau","n":5,"w":64,"profile":[0,"x"],"requests":{}}|};
      (* Whitespace. *)
      {| { "op" : "tau" , "n" : 5 , "w" : 64 } |};
      "\t{\"op\":\"tau\",\r\n\"n\":5,\t\"w\":64}\r";
      "   ";
      "";
      (* Extreme integers and numbers. *)
      {|{"op":"tau","n":-4611686018427387904,"w":64}|};
      {|{"op":"tau","n":9007199254740992,"w":64}|};
      {|{"op":"tau","n":9223372036854775808,"w":64}|};
      {|{"op":"tau","n":-0,"w":64}|};
      {|{"op":"tau","n":1e1,"w":64}|};
      {|{"op":"tau","n":5,"w":64,"deadline_ms":4611686018427387903}|};
      {|{"op":"tau","n":5,"w":64,"deadline_ms":1.5e300}|};
      {|{"op":"tau","n":5,"w":64,"deadline_ms":-0.0}|};
      {|{"op":"tau","n":5,"w":64,"deadline_ms":null}|};
      {|{"op":"tau","n":5,"w":64,"deadline_ms":1e400}|};
      (* Malformed JSON. *)
      {|{"op":"tau","n":5,"w":64}x|};
      {|{"op":"tau","n":01,"w":64}|};
      {|{"op":"tau","n":+1,"w":64}|};
      {|{"op":"tau","n":.5,"w":64}|};
      {|{"op":"tau","n":5,"w":64,}|};
      {|{"op" "tau"}|};
      {|{,}|};
      {|{"id":"\ud800","op":"tau","n":5,"w":64}|};
      {|{"id":"\x","op":"tau","n":5,"w":64}|};
      "{\"id\":\"a\001b\",\"op\":\"tau\",\"n\":5,\"w\":64}";
      {|{"op":"tau","n":5,"w":64}{}|};
      {|{"op":"batch","requests":[{"op":"tau","n":0},{"op":"tau","n":5,"w":]}|};
      {|{"op":"nope","n":0,"junk":tru}|};
      {|{"op":"tau","n":5,"w":64|};
      (* The id an error reply echoes. *)
      {|{"id":"s1","op":"frobnicate","n":[}|};
      {|{"id":"s2","op":"tau","n":0}|};
      {|{"op":"tau","id":[{"s":3}],"n":5}|};
      {|[{"id":1}]|};
      (* Batches. *)
      {|{"id":"b0","op":"batch","requests":[{"op":"tau","n":5,"w":64}],"deadline_ms":0}|};
      {|{"id":"b1","op":"batch","requests":[{"id":1,"op":"tau","n":5,"w":64,"deadline_ms":0},{"id":2,"op":"welfare","n":5,"w":64,"deadline_ms":1e9},{"op":"ne","n":2},{"op":"payoff","profile":[16,32,32,64]}],"deadline_ms":1e9}|};
      {|{"id":[1],"op":"batch","requests":[{"op":"payoff","profile":[40,40,300,700]},{"op":"payoff","profile":[41,41,300,700]},{"op":"payoff","profile":[42,{"cw":42},300,700]}]}|};
      {|{"op":"batch","requests":[7,{"op":"tau","n":5,"w":64}]}|};
      {|{"op":"batch","requests":[{"op":"payoff","profile":[16,"x"]},{"op":"nope"}]}|};
      {|{"op":"batch","requests":[{"id":{"k":"v"},"op":"tau","n":2,"w":16,"requests":[{"op":"x"}]}]}|};
      {|{"op":"tau","n":5,"w":64,"deadline_ms":0}|};
      {|{"op":"tau","n":5,"w":64,"deadline_ms":1000000000}|};
    ]

(* Unique payoff profiles drawn the way the serve_cold benchmark draws
   them: 2-32 window classes of 1-3 nodes, windows 16-1023; single leaves
   and one batch of 8 sweep points (one class's window stepped by 1). *)
let cold_lines () =
  let rng = Prelude.Rng.create 29 in
  let distinct c =
    let rec go acc k =
      if k = 0 then acc
      else
        let w = Prelude.Rng.int_in rng 16 1023 in
        if List.mem w acc then go acc k else go (w :: acc) (k - 1)
    in
    go [] c
  in
  let nodes w = List.init (Prelude.Rng.int_in rng 1 3) (fun _ -> w) in
  let line cws = payoff_line (List.map string_of_int cws) in
  let single () =
    line (List.concat_map nodes (distinct (Prelude.Rng.int_in rng 2 32)))
  in
  let batch () =
    let others = distinct (Prelude.Rng.int_in rng 1 31) in
    let w0 = Prelude.Rng.int_in rng 16 1016 in
    let swept = List.length (nodes w0) in
    let rest = List.concat_map nodes others in
    Printf.sprintf {|{"op":"batch","requests":[%s]}|}
      (String.concat ","
         (List.init 8 (fun k -> line (List.init swept (fun _ -> w0 + k) @ rest))))
  in
  let singles = List.init 4 (fun _ -> single ()) in
  singles @ [ batch () ]

(* Each "elapsed_ms" number replaced by "_". *)
let mask_elapsed reply =
  let key = {|"elapsed_ms":|} in
  let k = String.length key and n = String.length reply in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else if i + k <= n && String.sub reply i k = key then begin
      Buffer.add_string b key;
      Buffer.add_char b '_';
      let rec skip j =
        if j < n && String.contains "-+.eE0123456789" reply.[j] then skip (j + 1)
        else j
      in
      go (skip (i + k))
    end
    else begin
      Buffer.add_char b reply.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let serve_wire () =
  let registry = Telemetry.Registry.create ~label:"golden-serve-wire" () in
  let oracle = Macgame.Oracle.analytic ~telemetry:registry Dcf.Params.default in
  let server = Serve.Server.create ~telemetry:registry oracle in
  let lines =
    serve_memo_mix @ serve_memo_mix @ parse_error_lines @ wire_lines
    @ cold_lines ()
  in
  List.mapi
    (fun i line ->
      (* Long lines are kept as their length and digest. *)
      let request =
        if String.length line <= 4096 then [ ("request", String line) ]
        else
          [
            ("request_bytes", Int (String.length line));
            ( "request_fnv1a64",
              String (Prelude.Util.hex64 (Prelude.Util.fnv1a64 line)) );
          ]
      in
      let reply =
        match Serve.Server.handle_line server line with
        | Some reply -> String (mask_elapsed reply)
        | None -> Null
      in
      Obj
        ((("id", String (Printf.sprintf "wire.%03d" i)) :: request)
        @ [ ("reply", reply) ]))
    lines

let snapshots () =
  [
    {
      name = "analytic_equilibrium";
      tier = Check.Fast;
      policy = Exact;
      generate = analytic_equilibrium;
    };
    { name = "slotted_sim"; tier = Check.Fast; policy = Exact; generate = slotted_sim };
    {
      name = "slotted_strategies";
      tier = Check.Fast;
      policy = Exact;
      generate = slotted_strategies;
    };
    {
      name = "unsaturated_sim";
      tier = Check.Fast;
      policy = Exact;
      generate = unsaturated_sim;
    };
    { name = "spatial_sim"; tier = Check.Fast; policy = Exact; generate = spatial_sim };
    {
      name = "multihop_quasi";
      tier = Check.Fast;
      policy = Exact;
      generate = multihop_quasi;
    };
    {
      name = "oracle_backends";
      tier = Check.Fast;
      policy = Toleranced 0.05;
      generate = oracle_backends;
    };
    {
      name = "class_solver";
      tier = Check.Fast;
      policy = Exact;
      generate = class_solver;
    };
    { name = "serve_wire"; tier = Check.Fast; policy = Exact; generate = serve_wire };
  ]

(* {2 Field-level diffing} *)

type field_diff = { path : string; golden : string; current : string; m : float }

let numeric = function Int _ | Float _ -> true | _ -> false

let as_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> nan

(* Accumulates one diff entry per differing leaf.  Under [Toleranced tol]
   numeric leaves get a proportional margin; everything else is
   exact-or-infinite. *)
let rec diff_value ~policy ~path golden current acc =
  match (golden, current) with
  | Obj g, Obj c ->
      let keys =
        List.sort_uniq compare (List.map fst g @ List.map fst c)
      in
      List.fold_left
        (fun acc key ->
          let sub = if path = "" then key else path ^ "/" ^ key in
          match (List.assoc_opt key g, List.assoc_opt key c) with
          | Some gv, Some cv -> diff_value ~policy ~path:sub gv cv acc
          | Some gv, None ->
              { path = sub; golden = to_string gv; current = "<missing>";
                m = infinity }
              :: acc
          | None, Some cv ->
              { path = sub; golden = "<missing>"; current = to_string cv;
                m = infinity }
              :: acc
          | None, None -> acc)
        acc keys
  | List g, List c when List.length g = List.length c ->
      List.fold_left
        (fun (acc, i) (gv, cv) ->
          (diff_value ~policy ~path:(Printf.sprintf "%s[%d]" path i) gv cv acc,
           i + 1))
        (acc, 0) (List.combine g c)
      |> fst
  | g, c when g = c -> acc
  | g, c -> (
      match policy with
      | Toleranced tol when numeric g && numeric c ->
          let gv = as_float g and cv = as_float c in
          let scale = Float.max (Float.abs gv) (Float.abs cv) in
          let rel = if scale > 0. then Float.abs (gv -. cv) /. scale else 0. in
          let m = rel /. tol in
          if m <= 1. && Float.is_finite m then acc
          else
            { path; golden = to_string g; current = to_string c; m } :: acc
      | _ ->
          { path; golden = to_string g; current = to_string c; m = infinity }
          :: acc)

let record_id json =
  match member "id" json with Some (String s) -> s | _ -> "<no id>"

let diff_records ~policy golden current =
  let index records =
    List.map (fun r -> (record_id r, r)) records
  in
  let g = index golden and c = index current in
  let keys = List.sort_uniq compare (List.map fst g @ List.map fst c) in
  List.fold_left
    (fun acc key ->
      match (List.assoc_opt key g, List.assoc_opt key c) with
      | Some gv, Some cv -> diff_value ~policy ~path:key gv cv acc
      | Some _, None ->
          { path = key; golden = "<record>"; current = "<missing>";
            m = infinity }
          :: acc
      | None, Some _ ->
          { path = key; golden = "<missing>"; current = "<record>";
            m = infinity }
          :: acc
      | None, None -> acc)
    [] keys
  |> List.rev

(* {2 File I/O} *)

let path_of ~dir snapshot = Filename.concat dir (snapshot.name ^ ".jsonl")

let render records =
  String.concat "" (List.map (fun r -> to_string r ^ "\n") records)

let read_lines path =
  let contents = In_channel.with_open_text path In_channel.input_all in
  String.split_on_char '\n' contents
  |> List.filter (fun line -> String.trim line <> "")

(* {2 Checks and blessing} *)

let check_snapshot snapshot ~dir =
  let id = "golden." ^ snapshot.name in
  let path = path_of ~dir snapshot in
  if not (Sys.file_exists path) then
    Check.skip ~id ~group:"golden"
      (Printf.sprintf "no snapshot at %s; bless with: %s" path bless_hint)
  else
    match List.map parse (read_lines path) with
    | exception Parse_error msg ->
        Check.v ~id ~group:"golden" ~margin:infinity
          ~detail:(Printf.sprintf "unparseable golden %s: %s" path msg)
          ()
    | golden_records ->
        let diffs =
          diff_records ~policy:snapshot.policy golden_records
            (snapshot.generate ())
        in
        let margin =
          List.fold_left (fun acc d -> Float.max acc d.m) 0. diffs
        in
        let detail =
          match diffs with
          | [] ->
              Printf.sprintf "%d records match"
                (List.length golden_records)
          | _ ->
              let shown =
                List.filteri (fun i _ -> i < 3) diffs
                |> List.map (fun d ->
                       Printf.sprintf "%s: golden %s vs current %s" d.path
                         d.golden d.current)
              in
              let more =
                if List.length diffs > 3 then
                  Printf.sprintf " (+%d more)" (List.length diffs - 3)
                else ""
              in
              String.concat "; " shown ^ more
              ^ Printf.sprintf "; re-bless: %s" bless_hint
        in
        Check.v ~id ~group:"golden" ~margin ~detail ()

let checks ?telemetry ~tier ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    let c =
      Check.skip ~id:"golden" ~group:"golden"
        (Printf.sprintf "golden directory %s absent; bless with: %s" dir
           bless_hint)
    in
    (Check.emit ?telemetry c; [ c ])
  else
    List.filter_map
      (fun s ->
        if not (Check.runs_in s.tier ~at:tier) then None
        else
          let c = check_snapshot s ~dir in
          Check.emit ?telemetry c;
          Some c)
      (snapshots ())

let bless ~dir ~tier =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.filter_map
    (fun s ->
      if not (Check.runs_in s.tier ~at:tier) then None
      else begin
        let path = path_of ~dir s in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (render (s.generate ())));
        Some path
      end)
    (snapshots ())
