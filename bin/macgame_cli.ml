(* macgame: command-line front end to the selfish-MAC game library.

   Subcommands:
     solve     solve the analytic model for a CW profile
     ne        Nash-equilibrium analysis for a symmetric network
     game      play the repeated game (TFT/GTFT/cheaters) and print the trace
     search    run the distributed NE-search protocol
     sim       run the packet-level single-hop simulator
     multihop  random-waypoint multi-hop scenario and quasi-optimality
     sweep     payoff and throughput versus the common window *)

open Cmdliner

(* {1 Shared options} *)

let mode_arg =
  let parse = function
    | "basic" -> Ok Dcf.Params.Basic
    | "rts" | "rts-cts" | "rtscts" -> Ok Dcf.Params.Rts_cts
    | s -> Error (`Msg (Printf.sprintf "unknown access mode %S" s))
  in
  let print ppf mode = Dcf.Params.pp_access_mode ppf mode in
  Arg.conv (parse, print)

let mode_t =
  Arg.(
    value
    & opt mode_arg Dcf.Params.Basic
    & info [ "mode" ] ~docv:"MODE" ~doc:"Access mode: $(b,basic) or $(b,rts).")

let backoff_t =
  Arg.(
    value
    & opt int Dcf.Params.default.max_backoff_stage
    & info [ "m"; "max-backoff-stage" ] ~docv:"M"
        ~doc:"Number of contention-window doublings (0 disables backoff).")

let params_of mode m =
  let params = Dcf.Params.with_mode mode Dcf.Params.default in
  let params = { params with Dcf.Params.max_backoff_stage = m } in
  match Dcf.Params.validate params with
  | Ok () -> params
  | Error e ->
      Printf.eprintf "invalid parameters: %s\n" e;
      exit 2

let n_t =
  Arg.(
    value & opt int 5
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of contending nodes.")

(* Execution engine: every subcommand accepts -j N (domain parallelism for
   experiment grids), --cache DIR (content-addressed result cache) and
   --no-cache.  The flags configure the ambient runner; grid-shaped
   subcommands (sweep) submit their points through it. *)

let jobs_t =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Evaluate experiment grids on $(docv) domains.  Results are \
           bit-identical to a serial run for every $(docv).")

let cache_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Cache task results under $(docv) (content-addressed; re-runs \
           recompute only changed points, and an interrupted sweep resumes \
           from the entries its finished tasks wrote).")

let no_cache_t =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Recompute every grid point; cache nothing.")

let configure_runner jobs cache no_cache =
  Runner.configure
    {
      Runner.workers = (if jobs >= 1 then jobs else 1);
      cache_dir = (if no_cache then None else cache);
      seed = 0;
    }

(* Observability: every subcommand accepts --telemetry FILE (stream the
   instrumentation events of all layers as JSONL), --telemetry-report
   (print the metrics registry after the run) and --trace FILE (record a
   binary flight-recorder trace of the run's hot paths). *)

let telemetry_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Write the telemetry event stream (solver convergence, simulator \
           run summaries, game stages) to $(docv) as JSON lines.  Span \
           timings are not in it: record them with $(b,--trace).")

let telemetry_report_t =
  Arg.(
    value & flag
    & info [ "telemetry-report" ]
        ~doc:"Print the telemetry counters/histograms report after the run.")

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable the flight recorder for the run and write the drained \
           trace to $(docv) (binary; inspect it with $(b,macgame trace \
           summary) or export it for Perfetto with $(b,macgame trace \
           export)).")

let with_telemetry file report trace f =
  let registry = Telemetry.Registry.default in
  let recorder = Telemetry.Recorder.default in
  let sink =
    Option.map
      (fun path ->
        try Telemetry.Sink.jsonl path
        with Sys_error msg ->
          Printf.eprintf "cannot open telemetry file: %s\n" msg;
          exit 2)
      file
  in
  Option.iter (Telemetry.Registry.add_sink registry) sink;
  if trace <> None then Telemetry.Recorder.set_enabled recorder true;
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path ->
          Telemetry.Recorder.set_enabled recorder false;
          let dump = Telemetry.Recorder.drain ~registry recorder in
          Telemetry.Trace_file.write path dump;
          Printf.eprintf "trace: %d records (%d dropped) -> %s\n"
            (Array.length dump.records) dump.dropped path)
        trace;
      Option.iter
        (fun s ->
          Telemetry.Registry.remove_sink registry s;
          Telemetry.Sink.close s)
        sink;
      if report then
        print_string (Telemetry.Report.render ~registry ~recorder ()))
    f

(* [instrumented run] threads the telemetry and runner options in front of
   a subcommand's own arguments. *)
let instrumented term =
  Term.(
    const (fun file report trace jobs cache no_cache run ->
        configure_runner jobs cache no_cache;
        with_telemetry file report trace run)
    $ telemetry_t $ telemetry_report_t $ trace_out_t $ jobs_t $ cache_t
    $ no_cache_t $ term)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let duration_t =
  Arg.(
    value & opt float 60.
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated duration.")

(* {1 Payoff oracle backend}

   Game-layer subcommands (ne, game, search, sweep, delay) evaluate every
   payoff through one memoized {!Macgame.Oracle}; --backend selects how
   that oracle answers: the analytic fixed point, or replicated packet
   simulations (slotted single-hop, or spatial on a clique). *)

let backend_t =
  Arg.(
    value
    & opt
        (enum
           [
             ("analytic", `Analytic); ("slotted", `Slotted);
             ("spatial", `Spatial);
           ])
        `Analytic
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Payoff evaluation backend: $(b,analytic) (fixed-point model), \
           $(b,slotted) (virtual-slot packet simulation) or $(b,spatial) \
           (spatial simulator on a clique).")

let replicates_t =
  Arg.(
    value & opt int 3
    & info [ "replicates" ] ~docv:"R"
        ~doc:"Simulation replicates per evaluated profile (sim backends).")

let sim_duration_t =
  Arg.(
    value & opt float 10.
    & info [ "sim-duration" ] ~docv:"SECONDS"
        ~doc:"Simulated seconds per replicate (sim backends).")

let sim_seed_t =
  Arg.(
    value & opt int 42
    & info [ "sim-seed" ] ~docv:"SEED"
        ~doc:"Base seed for the sim backends' replicate streams.")

let backend_of backend replicates duration seed =
  let cfg = { Macgame.Oracle.duration; replicates; seed } in
  match backend with
  | `Analytic -> Macgame.Oracle.Analytic
  | `Slotted -> Macgame.Oracle.Sim_slotted cfg
  | `Spatial -> Macgame.Oracle.Sim_spatial cfg

let oracle_of ?store backend replicates duration seed params =
  Macgame.Oracle.create
    ~backend:(backend_of backend replicates duration seed)
    ?store params

(* Evaluates to [Dcf.Params.t -> Macgame.Oracle.t]: the subcommand builds
   its params from --mode/-m first, then closes the oracle over them. *)
let oracle_term =
  Term.(
    const (fun backend replicates duration seed ->
        oracle_of backend replicates duration seed)
    $ backend_t $ replicates_t $ sim_duration_t $ sim_seed_t)

(* The serving variant additionally threads a store into the oracle (a
   plain, not optional, argument — optional args do not travel well
   through cmdliner terms). *)
let serving_oracle_term =
  Term.(
    const (fun backend replicates duration seed store params ->
        oracle_of ?store backend replicates duration seed params)
    $ backend_t $ replicates_t $ sim_duration_t $ sim_seed_t)

(* {1 solve} *)

let solve_cmd =
  let profile_t =
    Arg.(
      non_empty
      & pos_all int []
      & info [] ~docv:"CW..." ~doc:"Contention windows, one per node.")
  in
  let run mode m cws () =
    let params = params_of mode m in
    let solved = Dcf.Model.solve_profile params (Array.of_list cws) in
    Printf.printf "node |    W |    tau |      p | throughput | payoff/s\n";
    Array.iteri
      (fun i w ->
        Printf.printf "%4d | %4d | %.4f | %.4f |     %.4f | %+.4f\n" i w
          solved.taus.(i) solved.ps.(i)
          solved.metrics.per_node_throughput.(i)
          solved.utilities.(i))
      solved.cws;
    Printf.printf
      "channel: S=%.4f  Tslot=%.1f us  idle %.1f%%  success %.1f%%  collision %.1f%%\n"
      solved.metrics.throughput
      (solved.metrics.slot_time *. 1e6)
      (100. *. Dcf.Metrics.idle_fraction solved.metrics)
      (100. *. Dcf.Metrics.success_fraction solved.metrics)
      (100. *. Dcf.Metrics.collision_fraction solved.metrics)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve the analytic model for a CW profile")
    (instrumented Term.(const run $ mode_t $ backoff_t $ profile_t))

(* {1 ne} *)

let ne_cmd =
  let run mode m n mk_oracle () =
    let params = params_of mode m in
    let oracle = mk_oracle params in
    let w_star = Macgame.Equilibrium.efficient_cw oracle ~n in
    let w_lo = Macgame.Equilibrium.break_even_cw oracle ~n in
    let rlo, rhi = Macgame.Equilibrium.robust_range oracle ~n ~fraction:0.95 in
    Printf.printf "players            n    = %d (%s, %s backend)\n" n
      (Format.asprintf "%a" Dcf.Params.pp_access_mode mode)
      (Macgame.Oracle.backend_name (Macgame.Oracle.backend oracle));
    Printf.printf "efficient NE       Wc*  = %d\n" w_star;
    Printf.printf "break-even window  Wc0  = %d\n" w_lo;
    Printf.printf "NE set                  = [%d, %d]\n" w_lo w_star;
    Printf.printf "95%% robust range        = [%d, %d]\n" rlo rhi;
    Printf.printf "payoff at Wc*           = %.4f /s per node\n"
      (Macgame.Oracle.payoff_uniform oracle ~n ~w:w_star);
    Printf.printf "social welfare at Wc*   = %.4f /s\n"
      (Macgame.Equilibrium.social_welfare oracle ~n ~w:w_star);
    if n > 1 then
      Printf.printf "optimal tau (Q root)    = %.5f\n"
        (Macgame.Equilibrium.tau_star params ~n)
  in
  Cmd.v
    (Cmd.info "ne" ~doc:"Nash-equilibrium analysis for a symmetric network")
    (instrumented Term.(const run $ mode_t $ backoff_t $ n_t $ oracle_term))

(* {1 ne-multi} *)

let ne_multi_cmd =
  let aifs_max_t =
    Arg.(
      value & opt int 2
      & info [ "aifs-max" ] ~docv:"A" ~doc:"Largest AIFS defer count searched.")
  in
  let txop_max_t =
    Arg.(
      value & opt int 1
      & info [ "txop-max" ] ~docv:"K" ~doc:"Largest TXOP burst searched.")
  in
  let w0_t =
    Arg.(
      value & opt int 64
      & info [ "w0" ] ~docv:"W0" ~doc:"Starting window of every player.")
  in
  let run mode m n aifs_max txop_max w0 mk_oracle () =
    let params = params_of mode m in
    let oracle = mk_oracle params in
    let space =
      Dcf.Strategy_space.edca_space ~aifs_max ~txop_max
        ~cw_max:params.Dcf.Params.cw_max ()
    in
    let initial = Macgame.Profile.uniform ~n ~w:w0 in
    let out = Macgame.Search.ne_search oracle ~space ~initial in
    let payoffs = Macgame.Oracle.payoffs_profile oracle out.equilibrium in
    Printf.printf
      "space: CW [%d, %d] x AIFS [0, %d] x TXOP [1, %d]  (%s backend)\n"
      space.cw_min space.cw_max space.aifs_max space.txop_max
      (Macgame.Oracle.backend_name (Macgame.Oracle.backend oracle));
    Printf.printf "%s after %d round(s), %d payoff evaluations\n"
      (if out.converged then "converged" else "NOT converged")
      out.rounds out.evaluations;
    Array.iteri
      (fun i s ->
        Printf.printf "player %d: %s  payoff %+.4f /s\n" i
          (Format.asprintf "%a" Dcf.Strategy_space.pp s)
          payoffs.(i))
      out.equilibrium
  in
  Cmd.v
    (Cmd.info "ne-multi"
       ~doc:
         "Coordinate-descent NE search over the (CW, AIFS, TXOP) strategy \
          space")
    (instrumented
       Term.(
         const run $ mode_t $ backoff_t $ n_t $ aifs_max_t $ txop_max_t $ w0_t
         $ oracle_term))

(* {1 game} *)

let game_cmd =
  let stages_t =
    Arg.(value & opt int 6 & info [ "stages" ] ~docv:"K" ~doc:"Stages to play.")
  in
  let cheater_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "cheater" ] ~docv:"W"
          ~doc:"Add one player that pins this window (replaces player 0).")
  in
  let gtft_t =
    Arg.(
      value & flag
      & info [ "gtft" ] ~doc:"Use Generous TFT (r0=3, beta=0.9) instead of TFT.")
  in
  let noise_t =
    Arg.(
      value & opt float 0.
      & info [ "obs-noise" ] ~docv:"REL"
          ~doc:"Relative stddev of CW observation noise (0 = perfect).")
  in
  let run mode m n stages cheater gtft noise seed mk_oracle () =
    let oracle = mk_oracle (params_of mode m) in
    let w_star = Macgame.Equilibrium.efficient_cw oracle ~n in
    let base i =
      let initial = w_star + (7 * i) in
      if gtft then Macgame.Strategy.gtft ~initial ~r0:3 ~beta:0.9
      else Macgame.Strategy.tft ~initial
    in
    let strategies = Array.init n base in
    (match cheater with
    | Some w -> strategies.(0) <- Macgame.Strategy.fixed w
    | None -> ());
    let observer =
      if noise > 0. then
        Macgame.Observer.noisy ~rng:(Prelude.Rng.create seed) ~rel_stddev:noise
      else Macgame.Observer.perfect
    in
    let outcome = Macgame.Repeated.run oracle ~observer ~strategies ~stages in
    Printf.printf "players: %s\n"
      (String.concat ", "
         (Array.to_list
            (Array.map (Format.asprintf "%a" Macgame.Strategy.pp) strategies)));
    Printf.printf "stage | profile | welfare | fairness\n";
    Array.iter
      (fun (r : Macgame.Repeated.stage_record) ->
        Printf.printf "%5d | %s | %8.3f | %.3f\n" r.stage
          (Format.asprintf "%a" Macgame.Profile.pp r.cws)
          r.welfare
          (Prelude.Stats.jain_fairness r.utilities))
      outcome.trace;
    match (Macgame.Repeated.converged_window outcome, outcome.converged_at) with
    | Some w, Some k -> Printf.printf "converged to W=%d at stage %d\n" w k
    | _ -> print_endline "no convergence within the horizon"
  in
  Cmd.v
    (Cmd.info "game" ~doc:"Play the repeated MAC game and print the trace")
    (instrumented
       Term.(
         const run $ mode_t $ backoff_t $ n_t $ stages_t $ cheater_t $ gtft_t
         $ noise_t $ seed_t $ oracle_term))

(* {1 search} *)

let search_cmd =
  let w0_t =
    Arg.(value & opt int 16 & info [ "w0" ] ~docv:"W0" ~doc:"Starting window.")
  in
  let probes_t =
    Arg.(
      value & opt int 1
      & info [ "probes" ] ~docv:"K" ~doc:"Payoff measurements per candidate.")
  in
  let run mode m n w0 probes mk_oracle () =
    let params = params_of mode m in
    let oracle = mk_oracle params in
    let trace =
      Macgame.Search.run ~w0 ~probes ~cw_max:params.Dcf.Params.cw_max
        (Macgame.Search.of_oracle oracle ~n)
    in
    List.iter
      (fun { Macgame.Search.w; payoff; stddev } ->
        Printf.printf "probe W=%4d  payoff %.4f (stddev %.4f)\n" w payoff
          stddev)
      trace.measurements;
    (* Score the announced window against the analytic optimum regardless
       of what backend drove the climb. *)
    let analytic = Macgame.Oracle.analytic params in
    let w_star = Macgame.Equilibrium.efficient_cw analytic ~n in
    let u w = Macgame.Oracle.payoff_uniform analytic ~n ~w in
    Printf.printf "announced Wm = %d (true Wc* = %d, payoff ratio %.1f%%)\n"
      trace.result w_star
      (100. *. u trace.result /. u w_star)
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Run the distributed NE-search protocol (Sec. V.C)")
    (instrumented
       Term.(
         const run $ mode_t $ backoff_t $ n_t $ w0_t $ probes_t $ oracle_term))

(* {1 sim} *)

let aifs_t =
  Arg.(
    value & opt int 0
    & info [ "aifs" ] ~docv:"A" ~doc:"Extra AIFS defer slots (0 = legacy DIFS).")

let txop_t =
  Arg.(
    value & opt int 1
    & info [ "txop" ] ~docv:"K" ~doc:"Frames per TXOP burst (1 = no bursting).")

let rate_t =
  Arg.(
    value & opt float 1.0
    & info [ "rate" ] ~docv:"R" ~doc:"PHY rate multiplier (1 = base rate).")

let sim_cmd =
  let w_t =
    Arg.(
      value & opt int 79 & info [ "w"; "window" ] ~docv:"W" ~doc:"Common contention window.")
  in
  let shards_t =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Run the geometric spatial core region-sharded across $(docv) \
             domains (nodes dropped by the waypoint model in the \
             $(b,--area) square) instead of the single-hop slotted \
             simulator.  0 keeps the slotted path.")
  in
  let sim_area_t =
    Arg.(
      value & opt float 500.
      & info [ "area" ] ~docv:"METERS"
          ~doc:"Side of the square area (spatial path, with --shards).")
  in
  let sim_range_t =
    Arg.(
      value & opt float 120.
      & info [ "range" ] ~docv:"METERS"
          ~doc:"Decode radius (spatial path, with --shards).")
  in
  let cs_range_t =
    Arg.(
      value & opt float 0.
      & info [ "cs-range" ] ~docv:"METERS"
          ~doc:
            "Carrier-sense radius (spatial path); 0 means 1.5 x the decode \
             radius.")
  in
  let run_sharded ~params ~strategies ~n ~w ~duration ~seed ~shards ~area
      ~range ~cs_range =
    let cs_range = if cs_range > 0. then cs_range else 1.5 *. range in
    let walkers =
      Mobility.Waypoint.create ~seed
        { width = area; height = area; speed_min = 0.; speed_max = 5. }
        ~n
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Netsim.Sharded.run ?strategies ~shards
        {
          Netsim.Sharded.params;
          positions = Mobility.Waypoint.positions walkers;
          range;
          cs_range;
          cws = Array.make n w;
          duration;
          seed;
        }
    in
    let wall = Unix.gettimeofday () -. t0 in
    let mirrored =
      Array.fold_left
        (fun acc (i : Netsim.Sharded.shard_info) -> acc + i.mirrored)
        0 r.shards
    in
    Printf.printf
      "simulated %.1f s over %d nodes in %d live shard(s), %d mirrored\n"
      r.time n (Array.length r.shards) mirrored;
    Printf.printf
      "wall %.2f s (%.2fx real-time) | delivered %d | welfare %.4f\n" wall
      (if wall > 0. then r.time /. wall else infinity)
      r.delivered r.welfare_rate;
    (* The full table only at human scale; at 10^4 nodes it is noise. *)
    if n <= 64 then begin
      Printf.printf "node | attempts | success | coll | hidden | payoff/s\n";
      Array.iteri
        (fun i (s : Netsim.Spatial.node_stats) ->
          Printf.printf "%4d | %8d | %7d | %4d | %6d | %+.4f\n" i s.attempts
            s.successes s.local_collisions s.hidden_failures s.payoff_rate)
        r.per_node
    end
  in
  let run mode m n w aifs txop rate duration seed shards area range
      cs_range () =
    let params = params_of mode m in
    let s =
      { Dcf.Strategy_space.cw = w; aifs; txop_frames = txop; rate }
    in
    (match Dcf.Strategy_space.validate ~cw_max:params.Dcf.Params.cw_max s with
    | Ok () -> ()
    | Error e -> invalid_arg e);
    let strategies =
      if Dcf.Strategy_space.is_degenerate s then None
      else Some (Array.make n s)
    in
    if shards > 0 then
      run_sharded ~params ~strategies ~n ~w ~duration ~seed ~shards ~area
        ~range ~cs_range
    else begin
      let r =
        Netsim.Slotted.run ?strategies
          { params; cws = Array.make n w; duration; seed }
      in
      Printf.printf "simulated %.1f s, %d virtual slots\n" r.time r.slots;
      Printf.printf "node | attempts | success | tau_hat |  p_hat | payoff/s\n";
      Array.iteri
        (fun i (s : Netsim.Slotted.node_stats) ->
          Printf.printf "%4d | %8d | %7d | %.5f | %.4f | %+.4f\n" i s.attempts
            s.successes s.tau_hat s.p_hat s.payoff_rate)
        r.per_node;
      match strategies with
      | None ->
          let v = Dcf.Model.homogeneous params ~n ~w in
          Printf.printf
            "model: tau=%.5f p=%.4f payoff=%.4f | sim welfare %.4f\n" v.tau
            v.p v.utility r.welfare_rate
      | Some ss ->
          let v = Dcf.Model.solve_strategies params ss in
          Printf.printf
            "model: tau=%.5f p=%.4f payoff=%.4f | sim welfare %.4f\n"
            v.taus.(0) v.ps.(0) v.utilities.(0) r.welfare_rate
    end
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Packet-level simulation (slotted, or spatial with --shards)")
    (instrumented
       Term.(
         const run $ mode_t $ backoff_t $ n_t $ w_t $ aifs_t $ txop_t $ rate_t
         $ duration_t $ seed_t $ shards_t $ sim_area_t $ sim_range_t
         $ cs_range_t))

(* {1 multihop} *)

let multihop_cmd =
  let nodes_t =
    Arg.(value & opt int 100 & info [ "nodes" ] ~docv:"N" ~doc:"Node count.")
  in
  let area_t =
    Arg.(
      value & opt float 1000.
      & info [ "area" ] ~docv:"METERS" ~doc:"Side of the square area.")
  in
  let range_t =
    Arg.(
      value & opt float 250.
      & info [ "range" ] ~docv:"METERS" ~doc:"Radio range.")
  in
  let run m nodes area range seed () =
    let params = params_of Dcf.Params.Rts_cts m in
    let walkers =
      Mobility.Waypoint.create ~seed
        { width = area; height = area; speed_min = 0.; speed_max = 5. }
        ~n:nodes
    in
    let adjacency =
      Mobility.Topology.snapshot ~connect_attempts:200 walkers ~range
    in
    Printf.printf "topology: %d nodes, avg degree %.1f, connected %b\n" nodes
      (Mobility.Topology.average_degree adjacency)
      (Mobility.Topology.is_connected adjacency);
    let members = Mobility.Topology.largest_component adjacency in
    let core = Mobility.Topology.restrict adjacency members in
    let graph = Macgame.Multihop.create core in
    let q =
      Macgame.Multihop.quasi_optimality (Macgame.Oracle.analytic params) graph
    in
    Printf.printf "largest component: %d nodes, diameter %d\n"
      (List.length members)
      (Macgame.Multihop.diameter graph);
    Printf.printf "converged NE window Wm   = %d\n" q.w_m;
    Printf.printf "best common window       = %d\n" q.w_global_opt;
    Printf.printf "global payoff ratio      = %.1f%%\n" (100. *. q.global_ratio);
    Printf.printf "worst local payoff ratio = %.1f%%\n"
      (100. *. q.min_local_ratio)
  in
  Cmd.v
    (Cmd.info "multihop"
       ~doc:"Random-waypoint multi-hop scenario and NE quasi-optimality")
    (instrumented
       Term.(const run $ backoff_t $ nodes_t $ area_t $ range_t $ seed_t))

(* {1 sweep} *)

let sweep_cmd =
  let points_t =
    Arg.(value & opt int 24 & info [ "points" ] ~docv:"K" ~doc:"Grid size.")
  in
  let run mode m n points mk_oracle () =
    let params = params_of mode m in
    let oracle = mk_oracle params in
    let ws = Macgame.Welfare.sample_windows oracle ~n ~count:points in
    (* Each grid point is a runner task: -j N parallelises the sweep and
       --cache makes re-runs incremental. *)
    let encode (u, s) =
      Telemetry.Jsonx.Obj
        [
          ("utility", Telemetry.Jsonx.Float u);
          ("throughput", Telemetry.Jsonx.Float s);
        ]
    in
    let decode json =
      match
        ( Option.bind (Telemetry.Jsonx.member "utility" json)
            Telemetry.Jsonx.to_float_opt,
          Option.bind (Telemetry.Jsonx.member "throughput" json)
            Telemetry.Jsonx.to_float_opt )
      with
      | Some u, Some s -> Some (u, s)
      | _ -> None
    in
    let tasks =
      Array.map
        (fun w ->
          Runner.Task.make
            ~key:
              (Runner.Task.key_of ~family:"cli.sweep"
                 [
                   ( "params",
                     Telemetry.Jsonx.String
                       (Format.asprintf "%a" Dcf.Params.pp params) );
                   ( "backend",
                     Telemetry.Jsonx.String
                       (Macgame.Oracle.backend_name
                          (Macgame.Oracle.backend oracle)) );
                   ("n", Telemetry.Jsonx.Int n);
                   ("w", Telemetry.Jsonx.Int w);
                 ])
            ~encode ~decode
            (fun _rng ->
              let view = Macgame.Oracle.uniform oracle ~n ~w in
              (view.Macgame.Oracle.utility, view.Macgame.Oracle.throughput)))
        ws
    in
    let results = Runner.map ~name:"cli.sweep" tasks in
    Printf.printf "   W | payoff/node | welfare | U/C      | throughput\n";
    Array.iteri
      (fun i w ->
        let utility, throughput = results.(i) in
        Printf.printf "%4d |    %8.4f | %7.3f | %.6f | %.4f\n" w utility
          (float_of_int n *. utility)
          (params.Dcf.Params.sigma *. float_of_int n *. utility
          /. params.Dcf.Params.gain)
          throughput)
      ws;
    let w_star = Macgame.Equilibrium.efficient_cw oracle ~n in
    Printf.printf "efficient NE at W = %d\n" w_star
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Payoff and throughput versus the common window")
    (instrumented
       Term.(const run $ mode_t $ backoff_t $ n_t $ points_t $ oracle_term))

(* {1 delay} *)

let delay_cmd =
  let gamma_t =
    Arg.(
      value & opt float 0.
      & info [ "gamma" ] ~docv:"G" ~doc:"Delay sensitivity in 1/s.")
  in
  let run mode m n gamma () =
    let params = params_of mode m in
    let oracle = Macgame.Oracle.analytic params in
    let w_star = Macgame.Delay_game.efficient_cw oracle ~gamma ~n in
    let u = Macgame.Oracle.uniform oracle ~n ~w:w_star in
    let view =
      Dcf.Delay.of_node ~slot_time:u.slot_time ~tau:u.tau ~p:u.p ~w:w_star
        ~m:params.Dcf.Params.max_backoff_stage
    in
    Printf.printf "delay-aware efficient NE (gamma=%g): W = %d\n" gamma w_star;
    Printf.printf "mean access delay        = %.2f ms\n" (view.mean_delay *. 1e3);
    Printf.printf "attempts per packet      = %.3f\n" view.attempts_per_packet;
    Printf.printf "backoff slots per packet = %.1f\n" view.backoff_slots_per_packet;
    Printf.printf "network throughput S     = %.4f\n" u.throughput
  in
  Cmd.v
    (Cmd.info "delay" ~doc:"Delay-aware NE analysis (Sec. VIII extension)")
    (instrumented Term.(const run $ mode_t $ backoff_t $ n_t $ gamma_t))

(* {1 detect} *)

let detect_cmd =
  let beta_t =
    Arg.(
      value & opt float 0.8
      & info [ "beta" ] ~docv:"B" ~doc:"Tolerance threshold in (0, 1].")
  in
  let samples_t =
    Arg.(
      value & opt int 25
      & info [ "samples" ] ~docv:"K" ~doc:"Backoff observations per stage.")
  in
  let run mode m n beta samples () =
    let params = params_of mode m in
    let w_exp =
      Macgame.Equilibrium.efficient_cw (Macgame.Oracle.analytic params) ~n
    in
    Printf.printf "expected window W = %d; trigger: estimate < %.2f*W\n" w_exp beta;
    Printf.printf "false positive rate      = %.5f\n"
      (Macgame.Detection.false_positive_rate ~w_exp ~samples ~beta);
    List.iter
      (fun frac ->
        let w_true = Stdlib.max 1 (w_exp / frac) in
        Printf.printf "detect cheater at W/%d    = %.5f\n" frac
          (Macgame.Detection.detection_rate ~w_true ~w_exp ~samples ~beta))
      [ 2; 4; 8 ];
    match
      Macgame.Detection.design_gtft ~w_exp ~cheat_factor:0.5 ~per_stage:samples
        ~max_fp:0.05 ~min_detection:0.95
    with
    | Some d ->
        Printf.printf
          "suggested GTFT: beta=%.3f, r0=%d (FP %.4f, detection %.4f)\n" d.beta
          d.r0 d.false_positive d.detection
    | None -> print_endline "no feasible GTFT design within r0 <= 64"
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:"Cheating-detection error rates and GTFT design (cf. [3])")
    (instrumented
       Term.(const run $ mode_t $ backoff_t $ n_t $ beta_t $ samples_t))

(* {1 conformance} *)

let conformance_cmd =
  let tier_t =
    Arg.(
      value
      & opt (enum [ ("fast", Conformance.Check.Fast); ("full", Conformance.Check.Full) ]) Conformance.Check.Fast
      & info [ "tier" ] ~docv:"TIER"
          ~doc:
            "Which checks to run: $(b,fast) (the sub-second @ci tier) or \
             $(b,full) (the complete statistical grid; full includes fast).")
  in
  let golden_dir_t =
    Arg.(
      value
      & opt string Conformance.Suite.default_golden_dir
      & info [ "golden-dir" ] ~docv:"DIR"
          ~doc:"Directory of golden JSONL snapshots (default: test/golden).")
  in
  let bless_t =
    Arg.(
      value & flag
      & info [ "bless" ]
          ~doc:
            "Regenerate the golden snapshots instead of checking them \
             (equivalent to CONFORMANCE_BLESS=1).")
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the conformance report to $(docv).")
  in
  let bless_env () =
    match Sys.getenv_opt "CONFORMANCE_BLESS" with
    | Some s when s <> "" && s <> "0" -> true
    | _ -> false
  in
  let run file report trace jobs cache no_cache tier golden_dir bless out =
    configure_runner jobs cache no_cache;
    let failed = ref false in
    with_telemetry file report trace (fun () ->
        if bless || bless_env () then
          List.iter
            (fun path -> Printf.printf "blessed %s\n" path)
            (Conformance.Suite.bless ~golden_dir ~tier ())
        else begin
          let outcome = Conformance.Suite.run ~golden_dir ~tier () in
          print_string outcome.Conformance.Suite.report;
          Option.iter
            (fun path ->
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc outcome.Conformance.Suite.report);
              Printf.printf "report written to %s\n" path)
            out;
          failed := not outcome.Conformance.Suite.ok
        end);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Run the conformance suite: cross-backend statistical equivalence, \
          paper anchors and golden snapshots")
    Term.(
      const run $ telemetry_t $ telemetry_report_t $ trace_out_t $ jobs_t
      $ cache_t $ no_cache_t $ tier_t $ golden_dir_t $ bless_t $ out_t)

(* {1 serve} *)

let serve_cmd =
  let store_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Back the oracle with a persistent equilibrium store at $(docv) \
             (created if missing).  Cold solves are written through, so a \
             restarted service answers repeat queries from disk.")
  in
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let stdin_t =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Serve stdin to stdout, one JSONL request per line, until EOF \
             (the default when $(b,--socket) is not given).")
  in
  let max_inflight_t =
    Arg.(
      value & opt int 8
      & info [ "max-inflight" ] ~docv:"K"
          ~doc:
            "Evaluate at most $(docv) socket requests concurrently; the \
             rest queue (and may exhaust their deadlines).")
  in
  let max_connections_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-connections" ] ~docv:"K"
          ~doc:
            "Exit after serving $(docv) socket connections (for tests and \
             benches; default: serve forever).")
  in
  let run mode m store socket use_stdin max_inflight max_connections
      mk_oracle () =
    let params = params_of mode m in
    let store =
      Option.map
        (fun dir ->
          try Store.open_dir dir
          with Store.Locked reason ->
            Printf.eprintf "cannot open store: %s\n" reason;
            exit 2)
        store
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Store.close store)
      (fun () ->
        let oracle = mk_oracle store params in
        let server = Serve.Server.create oracle in
        match (socket, use_stdin) with
        | Some _, true ->
            Printf.eprintf "--socket and --stdin are mutually exclusive\n";
            exit 2
        | Some path, false ->
            Serve.Server.serve_socket server ~path ~max_inflight
              ?max_connections
              ~ready:(fun () -> Printf.eprintf "serving on %s\n%!" path)
              ()
        | None, _ -> Serve.Server.serve_channel server stdin stdout)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve oracle queries as a JSONL service (stdin or Unix socket), \
          optionally backed by a persistent equilibrium store")
    (instrumented
       Term.(
         const run $ mode_t $ backoff_t $ store_t $ socket_t $ stdin_t
         $ max_inflight_t $ max_connections_t $ serving_oracle_term))

(* {1 cache}

   Admin commands for the runner's content-addressed result cache. *)

let cache_dir_pos =
  Arg.(
    required
    & pos 0 (some dir) None
    & info [] ~docv:"DIR" ~doc:"Cache directory (as passed to --cache).")

let cache_gc_cmd =
  let max_age_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-age-days" ] ~docv:"DAYS"
          ~doc:"Evict entries older than $(docv) days.")
  in
  let max_bytes_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Evict oldest entries until the cache fits in $(docv) bytes.")
  in
  let run dir max_age_days max_bytes =
    let cache = Runner.Cache.open_dir dir in
    let stats = Runner.Cache.gc ?max_age_days ?max_bytes cache in
    Printf.printf
      "scanned %d entries: evicted %d (%d corrupt), freed %d bytes, %d \
       bytes kept\n"
      stats.Runner.Cache.scanned stats.evicted stats.corrupt stats.bytes_freed
      stats.bytes_kept
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Evict corrupt, stale and over-budget entries from a result cache")
    Term.(const run $ cache_dir_pos $ max_age_t $ max_bytes_t)

let cache_stats_cmd =
  let run dir =
    let cache = Runner.Cache.open_dir dir in
    Printf.printf "%s: %d entries\n" dir (Runner.Cache.entries cache)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Entry count of a result cache")
    Term.(const run $ cache_dir_pos)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect and collect the runner's result cache")
    [ cache_gc_cmd; cache_stats_cmd ]

(* {1 store}

   Admin commands for the persistent equilibrium store. *)

let store_dir_pos =
  Arg.(
    required
    & pos 0 (some dir) None
    & info [] ~docv:"DIR" ~doc:"Store directory (as passed to serve --store).")

let with_store dir f =
  match Store.with_store dir f with
  | v -> v
  | exception Store.Locked reason ->
      Printf.eprintf "cannot open store: %s\n" reason;
      exit 2
  | exception Store.Corrupt reason ->
      Printf.eprintf "corrupt store: %s\n" reason;
      exit 2

let store_stats_cmd =
  let run dir =
    with_store dir (fun s ->
        Printf.printf "%s: %d entries\n" dir (Store.entries s))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Entry count of an equilibrium store")
    Term.(const run $ store_dir_pos)

let store_compact_cmd =
  let run dir =
    with_store dir (fun s ->
        let before = Store.entries s in
        Store.compact s;
        Printf.printf "compacted %s: %d live entries\n" dir before)
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Rewrite an equilibrium store as one clean segment, dropping \
          superseded and damaged lines")
    Term.(const run $ store_dir_pos)

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and compact the equilibrium store")
    [ store_stats_cmd; store_compact_cmd ]

(* {1 trace}

   The flight-recorder toolbox: record a built-in workload to a binary
   trace, summarise it (top-k self/total time per span name), export it
   as Chrome trace-event JSON for Perfetto, and diff two traces with a
   threshold exit code for regression gates. *)

let read_trace path =
  match Telemetry.Trace_file.read path with
  | dump -> dump
  | exception Telemetry.Trace_file.Corrupt msg ->
      Printf.eprintf "%s: corrupt trace: %s\n" path msg;
      exit 2
  | exception Sys_error msg ->
      Printf.eprintf "cannot read trace: %s\n" msg;
      exit 2

let trace_record_cmd =
  let workload_t =
    Arg.(
      value
      & opt
          (enum
             [
               ("spatial25", `Spatial25); ("spatial10k", `Spatial10k);
               ("chain30", `Chain30);
               ("solve", `Solve); ("sweep", `Sweep);
             ])
          `Spatial25
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Built-in workload to record: $(b,spatial25) (25-node random \
             geometric spatial simulation, the perf kernel's topology), \
             $(b,spatial10k) (10000-node constant-density network through \
             the grid-indexed core — the scale tier's substrate), \
             $(b,chain30) (30-node RTS/CTS chain), $(b,solve) (50-node \
             heterogeneous fixed point) or $(b,sweep) (window sweep through \
             the runner pool; combine with -j to exercise multi-domain \
             merging).")
  in
  let out_t =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Where to write the trace.  Given more than once, the repeats \
             are dealt round-robin to the files (repeat k to the k-th file \
             modulo their count) and the recorder is drained after each \
             repeat: one process records every file, interleaved, so a \
             slowdown of the whole host lands on all of them alike.")
  in
  let repeat_t =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"K" ~doc:"Run the workload $(docv) times.")
  in
  let capacity_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "capacity" ] ~docv:"RECORDS"
          ~doc:
            "Ring capacity per domain (rounded up to a power of two; \
             default 32768).  Small rings demonstrate wrap accounting.")
  in
  let detail_t =
    Arg.(
      value & flag
      & info [ "detail" ]
          ~doc:
            "Also record the dense tier (per-calendar-event and RTS/CTS/NAV \
             instants in the spatial core).")
  in
  let inject_t =
    Arg.(
      value & opt int 0
      & info [ "inject-slow-us" ] ~docv:"MICROS"
          ~doc:
            "Busy-wait $(docv) microseconds inside each workload iteration \
             (under a $(b,trace.injected) span) — an artificial slowdown \
             for exercising $(b,trace diff).")
  in
  let busy_wait us =
    let until = Unix.gettimeofday () +. (float_of_int us *. 1e-6) in
    while Unix.gettimeofday () < until do
      ()
    done
  in
  let chain n =
    Array.init n (fun i ->
        List.filter (fun j -> j >= 0 && j < n && j <> i) [ i - 1; i + 1 ])
  in
  let random_geometric ~seed n =
    let w =
      Mobility.Waypoint.create ~seed
        { width = 500.; height = 500.; speed_min = 0.; speed_max = 5. }
        ~n
    in
    Mobility.Topology.snapshot ~connect_attempts:50 w ~range:180.
  in
  let spatial adjacency n duration seed =
    ignore
      (Netsim.Spatial.run
         {
           params = Dcf.Params.rts_cts;
           adjacency;
           cws = Array.make n 32;
           duration;
           seed;
         })
  in
  let sweep_workload jobs =
    let oracle = Macgame.Oracle.analytic Dcf.Params.default in
    let tasks =
      Array.init 32 (fun i ->
          let w = 16 + (8 * i) in
          Runner.Task.make
            ~key:
              (Runner.Task.key_of ~family:"trace.sweep"
                 [ ("w", Telemetry.Jsonx.Int w) ])
            ~encode:(fun v -> Telemetry.Jsonx.Float v)
            ~decode:Telemetry.Jsonx.to_float_opt
            (fun _rng -> Macgame.Oracle.payoff_uniform oracle ~n:10 ~w))
    in
    ignore
      (Runner.map
         ~config:
           { Runner.workers = jobs; cache_dir = None; seed = 0 }
         ~name:"trace.sweep" tasks)
  in
  let run workload outs duration seed repeat capacity detail inject jobs =
    let outs = Array.of_list outs in
    let files = Array.length outs in
    let repeat = Stdlib.max 1 repeat in
    if repeat < files then begin
      Printf.eprintf "trace record: --repeat %d is fewer than the %d -o files\n"
        repeat files;
      exit 2
    end;
    let recorder = Telemetry.Recorder.default in
    Option.iter (Telemetry.Recorder.set_capacity recorder) capacity;
    Telemetry.Recorder.set_detail recorder detail;
    let nid_workload = Telemetry.Recorder.intern recorder "trace.workload" in
    let nid_injected = Telemetry.Recorder.intern recorder "trace.injected" in
    let body =
      match workload with
      | `Spatial25 ->
          let adjacency = random_geometric ~seed 25 in
          fun () -> spatial adjacency 25 duration seed
      | `Spatial10k ->
          (* Constant mean decode degree ~12 (as in the bench scale tier):
             the area grows with n, so this records index behaviour at
             10^4 nodes, not a denser MAC game.  Through run_grid — no
             O(n^2) adjacency extraction on the way in. *)
          let n = 10_000 and range = 120. in
          let side =
            sqrt (float_of_int n *. Float.pi *. range *. range /. 12.)
          in
          let w =
            Mobility.Waypoint.create ~seed
              { width = side; height = side; speed_min = 0.; speed_max = 5. }
              ~n
          in
          let positions = Mobility.Waypoint.positions w in
          fun () ->
            ignore
              (Netsim.Spatial.run_grid ~params:Dcf.Params.default ~positions
                 ~range ~cs_range:180. ~cws:(Array.make n 128) ~duration
                 ~seed ())
      | `Chain30 ->
          let adjacency = chain 30 in
          fun () -> spatial adjacency 30 duration seed
      | `Solve ->
          fun () ->
            ignore
              (Dcf.Solver.solve_profile Dcf.Params.default
                 (Array.init 50 (fun i -> 64 + i)))
      | `Sweep -> fun () -> sweep_workload jobs
    in
    (* Drained repeats per file, newest first. *)
    let parts = Array.make files [] in
    Telemetry.Recorder.set_enabled recorder true;
    for k = 1 to repeat do
      Telemetry.Recorder.with_span recorder nid_workload k inject (fun () ->
          body ();
          if inject > 0 then
            Telemetry.Recorder.with_span recorder nid_injected inject k
              (fun () -> busy_wait inject));
      if files > 1 then begin
        let i = (k - 1) mod files in
        parts.(i) <- Telemetry.Recorder.drain recorder :: parts.(i)
      end
    done;
    Telemetry.Recorder.set_enabled recorder false;
    if files = 1 then parts.(0) <- [ Telemetry.Recorder.drain recorder ];
    Array.iteri
      (fun i newest_first ->
        let drains = List.rev newest_first in
        (* Interned names only grow, so the last drain's table names
           every record of the earlier ones. *)
        let dump =
          {
            Telemetry.Recorder.records =
              Array.concat
                (List.map
                   (fun (d : Telemetry.Recorder.dump) -> d.records)
                   drains);
            names = (List.hd newest_first).names;
            dropped =
              List.fold_left
                (fun acc (d : Telemetry.Recorder.dump) -> acc + d.dropped)
                0 drains;
          }
        in
        Telemetry.Trace_file.write outs.(i) dump;
        Printf.printf "trace: %d records (%d dropped) -> %s\n"
          (Array.length dump.records) dump.dropped outs.(i))
      parts
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record a built-in workload to a binary trace")
    Term.(
      const run $ workload_t $ out_t $ duration_t $ seed_t $ repeat_t
      $ capacity_t $ detail_t $ inject_t $ jobs_t)

let trace_file_pos n doc = Arg.(required & pos n (some string) None & info [] ~docv:"TRACE" ~doc)

let trace_summary_cmd =
  let top_t =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"K" ~doc:"Show the top $(docv) span names.")
  in
  let run path top =
    let summary = Telemetry.Trace_view.summarize (read_trace path) in
    Telemetry.Trace_view.render_summary ~top Format.std_formatter summary
  in
  Cmd.v
    (Cmd.info "summary"
       ~doc:"Per-span self/total time and loss accounting for a trace")
    Term.(const run $ trace_file_pos 0 "Trace file (from record or --trace)." $ top_t)

let trace_export_cmd =
  let format_t =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome) ]) `Chrome
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format; $(b,chrome) is Chrome trace-event JSON, \
             loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.")
  in
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the export.")
  in
  let run path `Chrome out =
    let dump = read_trace path in
    let json =
      Telemetry.Jsonx.to_string (Telemetry.Trace_view.to_chrome dump)
    in
    (* Self-check: the export must parse back before we call it valid. *)
    (match Telemetry.Jsonx.parse json with
    | exception Telemetry.Jsonx.Parse_error msg ->
        Printf.eprintf "internal error: chrome export is not valid JSON: %s\n"
          msg;
        exit 2
    | _ -> ());
    Out_channel.with_open_bin out (fun oc ->
        Out_channel.output_string oc json;
        Out_channel.output_char oc '\n');
    Printf.printf "exported %d records -> %s (open in ui.perfetto.dev)\n"
      (Array.length dump.records) out
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a trace for Perfetto / chrome://tracing")
    Term.(const run $ trace_file_pos 0 "Trace file to export." $ format_t $ out_t)

let trace_diff_cmd =
  let threshold_t =
    Arg.(
      value & opt float 0.25
      & info [ "threshold" ] ~docv:"FRACTION"
          ~doc:
            "Flag span names whose total time and shortest instance both \
             changed by more than this fraction.")
  in
  let min_seconds_t =
    Arg.(
      value & opt float 1e-4
      & info [ "min-seconds" ] ~docv:"SECONDS"
          ~doc:
            "Ignore span names below this total time on both sides (noise \
             floor).")
  in
  let run a b threshold min_seconds =
    let deltas =
      Telemetry.Trace_view.diff ~threshold ~min_seconds (read_trace a)
        (read_trace b)
    in
    Telemetry.Trace_view.render_diff Format.std_formatter deltas;
    if Telemetry.Trace_view.flagged deltas > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two traces per span name; exit 1 when a span's total time \
          and shortest instance both moved past the threshold, or its \
          instance count changed")
    Term.(
      const run
      $ trace_file_pos 0 "Baseline trace."
      $ trace_file_pos 1 "Candidate trace."
      $ threshold_t $ min_seconds_t)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Record, summarise, export and diff flight-recorder traces")
    [ trace_record_cmd; trace_summary_cmd; trace_export_cmd; trace_diff_cmd ]

let () =
  let info =
    Cmd.info "macgame" ~version:"1.0.0"
      ~doc:
        "Game-theoretic analysis of selfish IEEE 802.11 DCF (ICDCS 2007 \
         reproduction)"
  in
  let main =
    Cmd.group info
      [
        solve_cmd; ne_cmd; ne_multi_cmd; game_cmd; search_cmd; sim_cmd;
        multihop_cmd;
        sweep_cmd; delay_cmd; detect_cmd; conformance_cmd; serve_cmd;
        cache_cmd; store_cmd; trace_cmd;
      ]
  in
  (* The library refuses bad arguments (a window below 1, a trace ring
     too small, geometry the simulators cannot place) with
     [Invalid_argument]: one line and exit 2.  Any other exception is a
     bug and keeps cmdliner's internal-error report and exit code. *)
  exit
    (match Cmd.eval ~catch:false main with
    | code -> code
    | exception Invalid_argument msg ->
        Printf.eprintf "macgame: %s\n" msg;
        2
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "macgame: internal error, uncaught exception:\n%s\n%s%!"
          (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error)
