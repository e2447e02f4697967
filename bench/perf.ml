(* Bechamel micro-benchmarks: one Test.make per experiment kernel, so the
   cost of each table/figure's inner loop is tracked. *)

open Bechamel
open Toolkit

let params = Dcf.Params.default

(* 25 nodes scattered by the waypoint model and connected at 180 m range:
   the topology the PR-4 acceptance numbers are quoted on. *)
let random_25 () =
  let w =
    Mobility.Waypoint.create ~seed:21
      { width = 500.; height = 500.; speed_min = 0.; speed_max = 5. }
      ~n:25
  in
  Mobility.Topology.snapshot ~connect_attempts:50 w ~range:180.

(* A store in a fresh temporary directory holding [rows] 24-class oracle
   rows, the shape the serve_cold workload writes. *)
let store_with_rows rows =
  let dir = Filename.temp_file "perf_store" "" in
  Sys.remove dir;
  let store = Store.open_dir ~telemetry:(Telemetry.Registry.create ()) dir in
  let oracle =
    Macgame.Oracle.create ~telemetry:(Telemetry.Registry.create ()) ~store
      params
  in
  for i = 0 to rows - 1 do
    ignore
      (Macgame.Oracle.payoffs oracle
         (Array.init 24 (fun c -> 16 + i + (41 * c))))
  done;
  (dir, store)

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let tests =
  Test.make_grouped ~name:"selfish-mac"
    [
      Test.make ~name:"homogeneous_solve_n20"
        (Staged.stage (fun () ->
             ignore (Dcf.Solver.solve_homogeneous params ~n:20 ~w:339)));
      (* Multi-knob strategy kernel: the heterogeneous (CW, AIFS) coupled
         fixed point over 20 nodes in 3 AIFS classes — the inner loop of
         the PR-8 coordinate-descent NE search. *)
      Test.make ~name:"strategy_solve_cw_aifs_n20"
        (Staged.stage
           (let strategies =
              Array.init 20 (fun i ->
                  {
                    Dcf.Strategy_space.cw = 64 + (8 * i);
                    aifs = i mod 3;
                    txop_frames = 1;
                    rate = 1.0;
                  })
            in
            fun () -> ignore (Dcf.Model.solve_strategies params strategies)));
      (* Table II/III kernel: a 50-class cold heterogeneous fixed point
         through the damped-Newton class engine.  The CW ladder 2..51
         spans the full aggression spectrum the paper studies, from the
         near-greedy W = 2 selfish floor to standard windows; under that
         heavy contention the damped iteration's linear rate needs 73
         sweeps to 1e-14 while the proxy-seeded quadratic Newton path
         needs 5. *)
      Test.make ~name:"newton_cold_n50"
        (Staged.stage
           (let classes = List.init 50 (fun i -> (2 + i, 1)) in
            fun () -> ignore (Dcf.Solver.solve_classes params classes)));
      (* Figures 2-3 kernel: one welfare evaluation, cold (a fresh oracle
         per call, so the fixed point is actually solved every time). *)
      Test.make ~name:"welfare_point_n20"
        (Staged.stage (fun () ->
             ignore
               (Macgame.Oracle.payoff_uniform
                  (Macgame.Oracle.analytic params)
                  ~n:20 ~w:128)));
      (* Efficient-NE computation (ternary search over the window space),
         also cold — a shared oracle would reduce it to memo lookups. *)
      Test.make ~name:"efficient_cw_n20"
        (Staged.stage (fun () ->
             ignore
               (Macgame.Equilibrium.efficient_cw
                  (Macgame.Oracle.analytic params)
                  ~n:20)));
      (* Table II simulated column kernel: 1 simulated second, 10 nodes. *)
      Test.make ~name:"slotted_sim_1s_n10"
        (Staged.stage (fun () ->
             ignore
               (Netsim.Slotted.run
                  { params; cws = Array.make 10 128; duration = 1.; seed = 1 })));
      (* Multi-hop kernel: 1 simulated second, 30 nodes, RTS/CTS chain. *)
      Test.make ~name:"spatial_sim_1s_n30"
        (Staged.stage
           (let adjacency =
              Array.init 30 (fun i ->
                  List.filter (fun j -> j >= 0 && j < 30 && j <> i) [ i - 1; i + 1 ])
            in
            fun () ->
              ignore
                (Netsim.Spatial.run
                   {
                     params = Dcf.Params.rts_cts;
                     adjacency;
                     cws = Array.make 30 32;
                     duration = 1.;
                     seed = 1;
                   })));
      (* The PR-4 acceptance kernel: 25 nodes on a connected random
         geometric topology (the Sec. VII.B substrate at reduced scale),
         run through the event-driven core... *)
      Test.make ~name:"spatial_sim_1s_n25_random"
        (Staged.stage
           (let adjacency = random_25 () in
            fun () ->
              ignore
                (Netsim.Spatial.run
                   {
                     params = Dcf.Params.rts_cts;
                     adjacency;
                     cws = Array.make 25 32;
                     duration = 1.;
                     seed = 1;
                   })));
      (* The same event-core kernel with the flight recorder enabled, to
         price tracing.  The recorder was designed for traced-vs-untraced
         within 5%; over 13 interleaved runs on a 2-vCPU VM the traced
         kernel read -0.3% to +56.1% slower (medians +20.7% and +22.8%).
         The recorder is toggled inside the staged closure so only this
         kernel pays for it; rings wrap freely (wraps are just counter
         bumps) and are drained after the suite. *)
      Test.make ~name:"spatial_sim_1s_n25_random_traced"
        (Staged.stage
           (let adjacency = random_25 () in
            let recorder = Telemetry.Recorder.default in
            fun () ->
              Telemetry.Recorder.set_enabled recorder true;
              ignore
                (Netsim.Spatial.run
                   {
                     params = Dcf.Params.rts_cts;
                     adjacency;
                     cws = Array.make 25 32;
                     duration = 1.;
                     seed = 1;
                   });
              Telemetry.Recorder.set_enabled recorder false));
      (* ... and through the retired slot-scan loop it replaced, kept
         callable precisely so this speedup stays measurable (and so the
         differential tests have something to diff against). *)
      Test.make ~name:"spatial_sim_1s_n25_random_reference"
        (Staged.stage
           (let adjacency = random_25 () in
            fun () ->
              ignore
                (Netsim.Spatial.run_reference
                   {
                     params = Dcf.Params.rts_cts;
                     adjacency;
                     cws = Array.make 25 32;
                     duration = 1.;
                     seed = 1;
                   })));
      (* PR-10 scale kernels: the grid-indexed geometric core against the
         all-pairs adjacency scan it replaces, on the constant-density
         substrate of exp_scale (mean decode degree ~12, range 120 m,
         carrier-sense 180 m).  The scan kernel pays for the O(n^2)
         Topology.adjacency passes inside the closure — that resolution
         cost is exactly what the index removes, so it belongs in the
         measured path. *)
      Test.make ~name:"spatial_grid_250ms_n1k"
        (Staged.stage
           (let positions = Exp_scale.positions ~seed:7 1_000 in
            let cws = Array.make 1_000 128 in
            fun () ->
              ignore
                (Netsim.Spatial.run_grid ~params ~positions
                   ~range:Exp_scale.range ~cs_range:Exp_scale.cs_range ~cws
                   ~duration:0.25 ~seed:7 ())));
      Test.make ~name:"spatial_scan_250ms_n1k"
        (Staged.stage
           (let positions = Exp_scale.positions ~seed:7 1_000 in
            let cws = Array.make 1_000 128 in
            fun () ->
              let adjacency =
                Mobility.Topology.adjacency ~range:Exp_scale.range positions
              in
              let cs_adjacency =
                Mobility.Topology.adjacency ~range:Exp_scale.cs_range positions
              in
              ignore
                (Netsim.Spatial.run ~cs_adjacency
                   { params; adjacency; cws; duration = 0.25; seed = 7 })));
      (* The 10^4-node acceptance kernel (100 simulated ms per run), and
         the same load through the region-sharded multi-domain path — on a
         single core the sharded kernel's gap over the grid kernel is the
         ghost-redundancy + pool overhead the EXPERIMENTS.md table
         documents. *)
      Test.make ~name:"spatial_grid_100ms_n10k"
        (Staged.stage
           (let positions = Exp_scale.positions ~seed:7 10_000 in
            let cws = Array.make 10_000 128 in
            fun () ->
              ignore
                (Netsim.Spatial.run_grid ~params ~positions
                   ~range:Exp_scale.range ~cs_range:Exp_scale.cs_range ~cws
                   ~duration:0.1 ~seed:7 ())));
      Test.make ~name:"spatial_sharded_100ms_n10k"
        (Staged.stage
           (let positions = Exp_scale.positions ~seed:7 10_000 in
            let cws = Array.make 10_000 128 in
            fun () ->
              ignore
                (Netsim.Sharded.run ~shards:Exp_scale.shards
                   {
                     Netsim.Sharded.params;
                     positions;
                     range = Exp_scale.range;
                     cs_range = Exp_scale.cs_range;
                     cws;
                     duration = 0.1;
                     seed = 7;
                   })));
      (* Repeated-game kernel, cold: a fresh oracle per game, so every
         stage profile pays for its own fixed-point solve. *)
      Test.make ~name:"tft_game_5stages_n5_cold"
        (Staged.stage (fun () ->
             ignore
               (Macgame.Repeated.run
                  (Macgame.Oracle.analytic params)
                  ~strategies:
                    (Macgame.Repeated.all_tft ~n:5
                       ~initials:[| 100; 90; 110; 95; 105 |])
                  ~stages:5)));
      (* The same game against one long-lived oracle: after the first
         iteration every profile is a memo hit, so this measures the
         memoized evaluation path the unified oracle adds. *)
      Test.make ~name:"tft_game_5stages_n5_memoized"
        (Staged.stage
           (let oracle = Macgame.Oracle.analytic params in
            fun () ->
              ignore
                (Macgame.Repeated.run oracle
                   ~strategies:
                     (Macgame.Repeated.all_tft ~n:5
                        ~initials:[| 100; 90; 110; 95; 105 |])
                   ~stages:5)));
      (* One memo hit on an analytic oracle holding 3 000 one-deviant
         profiles (nine conformers at W = 16, one deviant at 17 … 3016):
         the Lemma 4 shape that once shared one hash bucket, so a hit
         walked every entry.  Flat in memo size when the hash reads every
         strategy. *)
      Test.make ~name:"oracle_memo_hit_3000"
        (Staged.stage
           (let oracle = Macgame.Oracle.analytic params in
            let profile k = Array.append (Array.make 9 16) [| 17 + k |] in
            for k = 0 to 2999 do
              ignore (Macgame.Oracle.payoffs oracle (profile k))
            done;
            let hit = profile 1500 in
            fun () -> ignore (Macgame.Oracle.payoffs oracle hit)));
      (* Coalition kernel: a 3-class fixed point. *)
      Test.make ~name:"class_solve_3classes"
        (Staged.stage (fun () ->
             ignore
               (Dcf.Solver.solve_classes params [ (83, 3); (166, 10); (332, 7) ])));
      (* Unsaturated kernel: 1 simulated second at 70% load, 10 nodes. *)
      Test.make ~name:"unsaturated_sim_1s_n10"
        (Staged.stage (fun () ->
             ignore
               (Netsim.Unsaturated.run
                  {
                    params;
                    cws = Array.make 10 166;
                    arrival_rates = Array.make 10 7.;
                    duration = 1.;
                    seed = 1;
                  })));
      (* Serving-layer kernels: one request line through the full parse →
         dispatch → render path.  Warm = a long-lived server answering
         from the memo tier (the steady state of a running service);
         cold = a fresh server per call, so the line also pays for the
         oracle solve. *)
      Test.make ~name:"serve_handle_line_warm"
        (Staged.stage
           (let server =
              Serve.Server.create (Macgame.Oracle.analytic params)
            in
            let line = "{\"op\":\"tau\",\"n\":10,\"w\":128}" in
            ignore (Serve.Server.handle_line server line);
            fun () -> ignore (Serve.Server.handle_line server line)))
      ;
      Test.make ~name:"serve_handle_line_cold"
        (Staged.stage (fun () ->
             ignore
               (Serve.Server.handle_line
                  (Serve.Server.create (Macgame.Oracle.analytic params))
                  "{\"op\":\"tau\",\"n\":10,\"w\":128}")));
      (* The serve_memo mix's 5-entry payoff line on a warmed server: the
         decoder's profile path and a reply of five payoffs. *)
      Test.make ~name:"serve_handle_line_payoff_warm"
        (Staged.stage
           (let server =
              Serve.Server.create (Macgame.Oracle.analytic params)
            in
            let line = "{\"op\":\"payoff\",\"profile\":[32,32,32,64,128]}" in
            ignore (Serve.Server.handle_line server line);
            fun () -> ignore (Serve.Server.handle_line server line)));
      (* A batch of four memo hits: the decoder's batch path, four member
         replies inside one envelope. *)
      Test.make ~name:"serve_handle_line_batch_warm"
        (Staged.stage
           (let server =
              Serve.Server.create (Macgame.Oracle.analytic params)
            in
            let line =
              "{\"op\":\"batch\",\"requests\":[{\"op\":\"tau\",\"n\":5,\"w\":64},\
               {\"op\":\"welfare\",\"n\":10,\"w\":128},\
               {\"op\":\"payoff\",\"profile\":[16,32,32,64]},\
               {\"op\":\"tau\",\"n\":20,\"w\":256}]}"
            in
            ignore (Serve.Server.handle_line server line);
            fun () -> ignore (Serve.Server.handle_line server line)));
      (* A cold payoff leaf, the serve_cold workload's unit: one payoff
         line of 24 window classes (1-3 nodes each, 48 nodes) on a fresh
         oracle and server, so the line pays for canonicalisation, the
         memo miss, the class-reduced Newton solve and rendering. *)
      Test.make ~name:"serve_payoff_leaf_cold"
        (Staged.stage
           (let windows =
              List.concat
                (List.init 24 (fun i ->
                     List.init ((i mod 3) + 1) (fun _ -> 16 + (41 * i))))
            in
            let line =
              Printf.sprintf "{\"op\":\"payoff\",\"profile\":[%s]}"
                (String.concat "," (List.map string_of_int windows))
            in
            fun () ->
              ignore
                (Serve.Server.handle_line
                   (Serve.Server.create (Macgame.Oracle.analytic params))
                   line)));
      (* Store read kernels.  The index holds each entry's bytes, so a
         hit parses its row: one stored 24-class oracle row found on an
         open store.  Opening validates every line (digest and parse) of
         a 2 000-row store built once in a temporary directory. *)
      Test.make_with_resource ~name:"store_find_hit_row24" Test.uniq
        ~allocate:(fun () ->
          let dir, store = store_with_rows 1 in
          let key = ref "" in
          Store.iter store (fun k -> key := k);
          (dir, store, !key))
        ~free:(fun (dir, store, _) ->
          Store.close store;
          remove_dir dir)
        (Staged.stage (fun (_, store, key) -> ignore (Store.find store ~key)));
      Test.make_with_resource ~name:"store_open_2k" Test.uniq
        ~allocate:(fun () ->
          let dir, store = store_with_rows 2_000 in
          Store.close store;
          dir)
        ~free:remove_dir
        (Staged.stage
           (let telemetry = Telemetry.Registry.create () in
            fun dir -> Store.close (Store.open_dir ~telemetry dir)));
      (* Runner overhead: a 32-point sweep of near-empty tasks on 4
         domains, no cache — measures the engine's fixed cost per sweep
         (pool spawn/join, job claims, key hashing) as distinct from the
         science inside the tasks. *)
      Test.make ~name:"runner_map_32tasks_j4"
        (Staged.stage
           (let config = { Runner.workers = 4; cache_dir = None; seed = 0 } in
            let tasks =
              Array.init 32 (fun i ->
                  Runner.Task.make
                    ~key:
                      (Runner.Task.key_of ~family:"perf.noop"
                         [ ("i", Telemetry.Jsonx.Int i) ])
                    ~encode:(fun v -> Telemetry.Jsonx.Float v)
                    ~decode:Telemetry.Jsonx.to_float_opt
                    (fun rng -> Prelude.Rng.float rng 1.))
            in
            fun () -> ignore (Runner.map ~config ~name:"perf.overhead" tasks)));
    ]

(* Persist the per-kernel estimates so successive PRs can diff them.  The
   strip of the "selfish-mac/" group prefix keeps the keys stable if the
   grouping ever changes. *)
let strip name =
  match String.index_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* The format of the files [write_json] writes.  Schema 2 adds [schema]
   and the [env] block; files without [schema] are the earlier formats
   (kernel objects, or bare numbers in the oldest), which the guard and
   the trend tool read alike. *)
let schema = 2

(* [git rev-parse HEAD], or "unknown" outside a repository. *)
let commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

(* The machine a run measured, as benchmark results name it. *)
let env_json () =
  Telemetry.Jsonx.Obj
    [
      ("nproc", Telemetry.Jsonx.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Telemetry.Jsonx.String Sys.ocaml_version);
      ("commit", Telemetry.Jsonx.String (commit ()));
    ]

(* Since PR 6 each kernel carries its replicate count and sample spread,
   so the regression guard and the trend tool can compare medians with
   error bars instead of single OLS points.  [entries] is
   (name, ols_ns, median_ns, stddev_ns, replicates). *)
let write_json ?(extras = []) path entries =
  let open Telemetry.Jsonx in
  let kernel (name, ols, median, stddev, replicates) =
    ( name,
      Obj
        [
          ("ns_per_run", Float ols);
          ("median", Float median);
          ("stddev", Float stddev);
          ("replicates", Int replicates);
        ] )
  in
  let json =
    Obj
      ([
         ("schema", Int schema);
         ("benchmark", String "bechamel-ols");
         ("unit", String "ns/run");
         ("env", env_json ());
         ("kernels", Obj (List.map kernel entries));
       ]
      @ extras)
  in
  let oc = open_out path in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d kernels)\n" path (List.length entries)

(* A kernel entry in a baseline file is either the pre-PR6 bare number or
   the current {ns_per_run; ...} object; read both so old baselines keep
   guarding new runs. *)
let kernel_ns json =
  match json with
  | Telemetry.Jsonx.Obj _ ->
      Option.bind
        (Telemetry.Jsonx.member "ns_per_run" json)
        Telemetry.Jsonx.to_float_opt
  | _ -> Telemetry.Jsonx.to_float_opt json

(* Performance regression guard: compare the fresh estimates of the
   guarded kernels against the checked-in baseline JSON (the previous
   --perf run's output at the same path) and fail loudly on a big
   regression.  2× is deliberately loose — micro-benchmark noise on
   shared machines is real — so tripping it means the kernel genuinely
   lost its edge.  Guarded: every spatial kernel — the event-core ones
   and the grid/scan/sharded scale ones — the slotted and unsaturated
   contention loops, the Newton solver kernel, the serving kernels —
   warm and cold tau lines, a warm payoff line and a warm batch, whose
   time is mostly request decoding and reply rendering — the cold
   payoff leaf, and a memo hit among 3 000 one-deviant profiles.  A
   kernel missing from the baseline is skipped until a baseline has it. *)
let guarded_kernel name =
  String.starts_with ~prefix:"spatial" name
  || List.mem name
       [
         "slotted_sim_1s_n10";
         "unsaturated_sim_1s_n10";
         "newton_cold_n50";
         "serve_handle_line_warm";
         "serve_handle_line_cold";
         "serve_handle_line_payoff_warm";
         "serve_handle_line_batch_warm";
         "serve_payoff_leaf_cold";
         "oracle_memo_hit_3000";
       ]

(* Checked-in baselines are named BENCH_PR<N>.json; the newest (highest N)
   is the regression reference, so landing BENCH_PR10.json automatically
   retires BENCH_PR9.json as the guard — no hardcoded filename to bump. *)
let baseline_index name =
  let prefix = "BENCH_PR" and suffix = ".json" in
  let lp = String.length prefix and ls = String.length suffix in
  let l = String.length name in
  if
    l > lp + ls
    && String.sub name 0 lp = prefix
    && String.sub name (l - ls) ls = suffix
  then int_of_string_opt (String.sub name lp (l - lp - ls))
  else None

let discover_baseline ?(dir = ".") () =
  Array.fold_left
    (fun acc name ->
      match (baseline_index name, acc) with
      | Some i, Some (j, _) when i <= j -> acc
      | Some i, _ -> Some (i, name)
      | None, _ -> acc)
    None
    (try Sys.readdir dir with Sys_error _ -> [||])
  |> Option.map snd

(* Every kernel's ratio to the baseline (new / old), for the file this
   run writes; exits 1 when a guarded kernel exceeds 2x. *)
let check_against_baseline path estimates =
  let baseline_kernels =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
        let text =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        (match Telemetry.Jsonx.parse text with
        | exception Telemetry.Jsonx.Parse_error _ -> None
        | json -> Telemetry.Jsonx.member "kernels" json)
  in
  match baseline_kernels with
  | None ->
      Printf.printf "no baseline at %s; skipping regression check\n" path;
      []
  | Some kernels ->
      let ratios =
        List.filter_map
          (fun (name, ns) ->
            match
              Option.bind (Telemetry.Jsonx.member name kernels) kernel_ns
            with
            | Some old_ns when Float.is_finite old_ns && old_ns > 0. ->
                let factor = ns /. old_ns in
                if guarded_kernel name then
                  Printf.printf
                    "baseline %-36s %8.0f -> %8.0f ns/run (%.2fx)\n" name
                    old_ns ns factor;
                Some (name, factor)
            | _ -> None)
          estimates
      in
      let regressions =
        List.filter
          (fun (name, factor) -> guarded_kernel name && factor > 2.)
          ratios
      in
      if regressions <> [] then begin
        List.iter
          (fun (name, factor) ->
            Printf.eprintf
              "perf: kernel %s regressed %.2fx vs baseline %s (limit 2x)\n"
              name factor path)
          regressions;
        exit 1
      end;
      ratios

(* Guard for the memoized kernel: a warm oracle must return the cold
   oracle's results bit for bit, stage by stage — otherwise the memoized
   timing would be measuring a different computation. *)
let check_memoized_identical () =
  let game oracle =
    Macgame.Repeated.run oracle
      ~strategies:
        (Macgame.Repeated.all_tft ~n:5 ~initials:[| 100; 90; 110; 95; 105 |])
      ~stages:5
  in
  let warm = Macgame.Oracle.analytic params in
  ignore (game warm) (* populate the memo *);
  let memoized = game warm in
  let cold = game (Macgame.Oracle.analytic params) in
  Array.iteri
    (fun s (r : Macgame.Repeated.stage_record) ->
      let c = cold.trace.(s) in
      Array.iteri
        (fun i u ->
          if Int64.bits_of_float u <> Int64.bits_of_float c.utilities.(i) then
            failwith
              (Printf.sprintf
                 "perf: memoized payoff differs from cold at stage %d node %d \
                  (%.17g vs %.17g)"
                 s i u c.utilities.(i)))
        r.utilities)
    memoized.trace;
  Printf.printf "memoized-vs-cold check: bit-identical over %d stages\n"
    (Array.length memoized.trace)

let run ?baseline ~out () =
  Common.heading "Bechamel micro-benchmarks";
  check_memoized_identical ();
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  let columns =
    [
      Prelude.Table.column ~align:Prelude.Table.Left "benchmark";
      Prelude.Table.column "time/run";
    ]
  in
  let rows = ref [] in
  let estimates = ref [] in
  Hashtbl.iter
    (fun _measure per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | _ -> nan
          in
          let rendered =
            if Float.is_nan estimate then "n/a"
            else if estimate > 1e9 then Printf.sprintf "%.2f s" (estimate /. 1e9)
            else if estimate > 1e6 then Printf.sprintf "%.2f ms" (estimate /. 1e6)
            else if estimate > 1e3 then Printf.sprintf "%.2f us" (estimate /. 1e3)
            else Printf.sprintf "%.0f ns" estimate
          in
          if Float.is_finite estimate then
            estimates := (name, estimate) :: !estimates;
          rows := [ name; rendered ] :: !rows)
        per_test)
    results;
  Common.print_table columns (List.sort compare !rows);
  let estimates =
    List.sort compare (List.map (fun (n, ns) -> (strip n, ns)) !estimates)
  in
  (* Per-kernel replicate spread from the raw measurements behind the OLS
     fit: one ns/run sample per batch, summarised as median + stddev. *)
  let label = Measure.label (List.hd instances) in
  let sample_stats =
    Hashtbl.fold
      (fun name (b : Benchmark.t) acc ->
        let samples =
          Array.map
            (fun m ->
              Measurement_raw.get ~label m /. Measurement_raw.run m)
            b.lr
        in
        Array.sort compare samples;
        let k = Array.length samples in
        let median =
          if k = 0 then nan
          else if k land 1 = 1 then samples.(k / 2)
          else (samples.((k / 2) - 1) +. samples.(k / 2)) /. 2.
        in
        let mean =
          Array.fold_left ( +. ) 0. samples /. float_of_int (Stdlib.max 1 k)
        in
        let stddev =
          if k < 2 then 0.
          else
            sqrt
              (Array.fold_left (fun a s -> a +. ((s -. mean) *. (s -. mean))) 0. samples
              /. float_of_int (k - 1))
        in
        (strip name, (median, stddev, k)) :: acc)
      raw []
  in
  let entries =
    List.map
      (fun (name, ols) ->
        match List.assoc_opt name sample_stats with
        | Some (median, stddev, k) -> (name, ols, median, stddev, k)
        | None -> (name, ols, nan, nan, 0))
      estimates
  in
  (* Tracing overhead of the 25-node event core, printed and not gated
     (see the traced kernel's comment for the measured range). *)
  (match
     ( List.assoc_opt "spatial_sim_1s_n25_random" estimates,
       List.assoc_opt "spatial_sim_1s_n25_random_traced" estimates )
   with
  | Some base, Some traced when base > 0. ->
      Printf.printf "tracing overhead: %.0f -> %.0f ns/run (%+.2f%%)\n" base
        traced
        (100. *. (traced -. base) /. base)
  | _ -> ());
  (* The traced kernel left wrapped rings behind; empty them so the
     process exits with clean recorder state. *)
  ignore (Telemetry.Recorder.drain Telemetry.Recorder.default);
  let baseline =
    match baseline with
    | Some b -> b
    | None -> Option.value (discover_baseline ()) ~default:out
  in
  Printf.printf "regression baseline: %s\n" baseline;
  let ratios = check_against_baseline baseline estimates in
  let saturation = Exp_serve.saturation () in
  let vs_baseline =
    Telemetry.Jsonx.Obj
      [
        ("file", Telemetry.Jsonx.String (Filename.basename baseline));
        ( "ratios",
          Telemetry.Jsonx.Obj
            (List.map (fun (name, r) -> (name, Telemetry.Jsonx.Float r)) ratios)
        );
      ]
  in
  write_json
    ~extras:[ ("vs_baseline", vs_baseline); ("saturation", saturation) ]
    out entries
