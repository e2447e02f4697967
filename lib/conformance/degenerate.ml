(* The refactor to (CW, AIFS, TXOP, rate) strategies promises that the
   degenerate subspace {aifs = 0; txop = 1; rate = 1} reproduces the
   CW-only stack bit-for-bit — not approximately, identically: every
   layer branches degenerate inputs onto the pre-refactor code path.
   These checks guard that seam.  Each point drives a layer both ways
   (bare CW arrays vs. explicit degenerate strategy records) and demands
   bitwise equality of every float it returns, so a future edit that
   quietly reroutes degenerate inputs through the multi-knob machinery
   trips the fast tier immediately. *)

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let float_arrays_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits_equal x y) a b

(* margin 0 on exact agreement, infinity otherwise — there is no partial
   credit for "close" when the claim is bit-identity. *)
let margin_of ok = if ok then 0. else infinity

let degenerate_strategies cws = Array.map Dcf.Strategy_space.of_cw cws

let model_point ~mode ~cws =
  let params =
    match mode with
    | `Basic -> Dcf.Params.default
    | `Rts -> Dcf.Params.rts_cts
  in
  (* The CW path, [solve_profile], is what the oracle (and so the whole
     game stack) runs.  The strategy path, [solve_strategies], must route
     degenerate strategies to the same class engine solve and price them
     the same way, so τ, p, utilities, goodputs and slot time agree bit
     for bit. *)
  let legacy = Dcf.Model.solve_profile params cws in
  let multi = Dcf.Model.solve_strategies params (degenerate_strategies cws) in
  float_arrays_equal legacy.taus multi.taus
  && float_arrays_equal legacy.ps multi.ps
  && float_arrays_equal legacy.utilities multi.utilities
  && float_arrays_equal legacy.metrics.per_node_throughput multi.goodputs
  && bits_equal legacy.metrics.slot_time multi.slot_time

let slotted_point ~cws ~seed =
  let config =
    { Netsim.Slotted.params = Dcf.Params.default; cws; duration = 0.3; seed }
  in
  let plain = Netsim.Slotted.run config in
  let lifted =
    Netsim.Slotted.run ~strategies:(degenerate_strategies cws) config
  in
  plain.slots = lifted.slots
  && bits_equal plain.welfare_rate lifted.welfare_rate
  && Array.for_all2
       (fun (a : Netsim.Slotted.node_stats) (b : Netsim.Slotted.node_stats) ->
         a.attempts = b.attempts && a.successes = b.successes
         && a.collisions = b.collisions && a.drops = b.drops
         && bits_equal a.tau_hat b.tau_hat
         && bits_equal a.p_hat b.p_hat
         && bits_equal a.payoff_rate b.payoff_rate)
       plain.per_node lifted.per_node

let spatial_point ~cws ~seed =
  let n = Array.length cws in
  (* Ring topology: hidden terminals without carrier-sense symmetry. *)
  let adjacency =
    Array.init n (fun i -> [ (i + 1) mod n; (i + n - 1) mod n ])
  in
  let config =
    {
      Netsim.Spatial.params = Dcf.Params.rts_cts;
      adjacency;
      cws;
      duration = 0.3;
      seed;
    }
  in
  let plain = Netsim.Spatial.run config in
  let lifted =
    Netsim.Spatial.run ~strategies:(degenerate_strategies cws) config
  in
  bits_equal plain.welfare_rate lifted.welfare_rate
  && Array.for_all2
       (fun (a : Netsim.Spatial.node_stats) (b : Netsim.Spatial.node_stats) ->
         a.attempts = b.attempts && a.successes = b.successes
         && a.drops = b.drops
         && a.local_collisions = b.local_collisions
         && a.hidden_failures = b.hidden_failures
         && bits_equal a.payoff_rate b.payoff_rate
         && bits_equal a.throughput b.throughput)
       plain.per_node lifted.per_node

(* The 14-point grid: 7 analytic solves spanning both access modes,
   uniform and mixed profiles; 5 slotted runs; 2 spatial runs. *)
let points =
  [
    ("model.basic.n5.w32", fun () -> model_point ~mode:`Basic ~cws:(Array.make 5 32));
    ("model.basic.n20.w336", fun () -> model_point ~mode:`Basic ~cws:(Array.make 20 336));
    ("model.basic.mixed3", fun () -> model_point ~mode:`Basic ~cws:[| 16; 64; 256 |]);
    ("model.basic.deviant5", fun () -> model_point ~mode:`Basic ~cws:[| 8; 76; 76; 76; 76 |]);
    ("model.rts.n10.w64", fun () -> model_point ~mode:`Rts ~cws:(Array.make 10 64));
    ("model.rts.mixed4", fun () -> model_point ~mode:`Rts ~cws:[| 32; 32; 128; 512 |]);
    ("model.rts.n2.w1", fun () -> model_point ~mode:`Rts ~cws:[| 1; 1 |]);
    ("slotted.n5.w79.s1", fun () -> slotted_point ~cws:(Array.make 5 79) ~seed:1);
    ("slotted.n10.w128.s7", fun () -> slotted_point ~cws:(Array.make 10 128) ~seed:7);
    ("slotted.mixed.s42", fun () -> slotted_point ~cws:[| 16; 79; 79; 200 |] ~seed:42);
    ("slotted.deviant.s11", fun () -> slotted_point ~cws:[| 4; 64; 64; 64; 64; 64 |] ~seed:11);
    ("slotted.n2.w16.s3", fun () -> slotted_point ~cws:[| 16; 16 |] ~seed:3);
    ("spatial.ring6.s5", fun () -> spatial_point ~cws:(Array.make 6 64) ~seed:5);
    ("spatial.ring5.mixed.s9", fun () -> spatial_point ~cws:[| 16; 64; 64; 128; 64 |] ~seed:9);
  ]

let checks ?telemetry ~tier () =
  if not (Check.runs_in Check.Fast ~at:tier) then []
  else
    List.map
      (fun (name, compute) ->
        let id = "degenerate." ^ name in
        let check =
          match compute () with
          | ok ->
              Check.v ~id ~group:"degenerate" ~margin:(margin_of ok)
                ~detail:
                  (if ok then "CW path and strategy path bit-identical"
                   else "CW path and strategy path DIVERGED on the \
                         degenerate subspace")
                ()
          | exception exn ->
              Check.v ~id ~group:"degenerate" ~margin:infinity
                ~detail:("raised: " ^ Printexc.to_string exn)
                ()
        in
        Check.emit ?telemetry check;
        check)
      points
