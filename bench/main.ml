(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Sec. VII) plus the analyses of Sec. V.C-V.E, and optionally
   runs the Bechamel micro-benchmark suite.

   Usage:
     main.exe                 run all experiments at quick scale
     main.exe --full          paper-scale durations
     main.exe --perf          micro-benchmarks only (regression-guarded
                              against the newest BENCH_PR*.json)
     main.exe --perf-out F    write the micro-benchmark JSON to F
     main.exe --scale         scaling tier: grid/scan/sharded wall-clock at
                              1k-100k nodes + sharded equivalence gate
                              (writes scale-bench.json)
     main.exe --trend         fold BENCH_PR*.json into a per-kernel history
     main.exe --only NAME     a single experiment: table1 table2 table3
                              figure2 figure3 multihop shortsighted
                              malicious convergence search validation
                              conformance ...
     main.exe -j N            run experiment grids on N domains
     main.exe --cache DIR     result-cache directory (default _runner_cache)
     main.exe --no-cache      recompute everything, cache nothing
     main.exe --telemetry F   stream telemetry events to F as JSONL
     main.exe --telemetry-report
                              print the metrics registry after the run *)

let experiments : (string * (Common.scale -> unit)) list =
  [
    ("table1", fun _ -> Exp_tables.table1 ());
    ("table2", Exp_tables.table2);
    ("table3", Exp_tables.table3);
    ("figure2", Exp_figures.figure2);
    ("figure3", Exp_figures.figure3);
    ("multihop", Exp_multihop.run);
    ("shortsighted", Exp_deviation.shortsighted);
    ("malicious", Exp_deviation.malicious);
    ("convergence", Exp_dynamics.convergence);
    ("search", Exp_dynamics.search);
    ("validation", Exp_validation.run);
    ("delay", Exp_extensions.delay);
    ("payload", Exp_extensions.payload);
    ("hidden", Exp_extensions.hidden);
    ("drops", Exp_extensions.drops);
    ("strategies", Exp_extensions.strategies);
    ("detection", Exp_extensions.detection);
    ("load", Exp_extensions.load);
    ("coalition", Exp_extensions.coalition);
    ("conformance", Exp_conformance.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let perf = List.mem "--perf" args in
  let scale_tier = List.mem "--scale" args in
  let trend = List.mem "--trend" args in
  let rec keyed flag = function
    | f :: value :: _ when f = flag -> Some value
    | _ :: rest -> keyed flag rest
    | [] -> None
  in
  let only = keyed "--only" in
  Common.csv_dir := keyed "--csv" args;
  (* Runner configuration: every experiment grid submits its points
     through the ambient runner. *)
  let jobs =
    match keyed "-j" args with
    | Some v -> ( match int_of_string_opt v with Some j when j >= 1 -> j | _ -> 1)
    | None -> 1
  in
  let cache_dir =
    if List.mem "--no-cache" args then None
    else Some (Option.value (keyed "--cache" args) ~default:"_runner_cache")
  in
  Runner.configure { Runner.workers = jobs; cache_dir; seed = 0 };
  (* Optional telemetry, mirroring the CLI's flags. *)
  let registry = Telemetry.Registry.default in
  let sink =
    Option.map
      (fun path -> Telemetry.Sink.jsonl path)
      (keyed "--telemetry" args)
  in
  Option.iter (Telemetry.Registry.add_sink registry) sink;
  let finish () =
    Option.iter
      (fun s ->
        Telemetry.Registry.remove_sink registry s;
        Telemetry.Sink.close s)
      sink;
    if List.mem "--telemetry-report" args then
      print_string (Telemetry.Report.render ~registry ())
  in
  Fun.protect ~finally:finish (fun () ->
      let scale = if full then Common.full else Common.quick in
      (match only args with
      | Some name -> (
          match List.assoc_opt name experiments with
          | Some f -> f scale
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s\n" name
                (String.concat " " (List.map fst experiments));
              exit 1)
      | None ->
          if not (perf || trend || scale_tier) then begin
            Printf.printf
              "Reproduction harness: Chen & Leneutre, ICDCS 2007 (%s scale)\n"
              (if full then "full" else "quick");
            List.iter (fun (_, f) -> f scale) experiments
          end);
      (if perf then
         (* The output defaults to the newest checked-in BENCH_PR*.json
            (overwrite-in-place, the pre-PR10 behaviour generalised); the
            regression baseline is always the newest one found before
            writing. *)
         let out =
           match keyed "--perf-out" args with
           | Some path -> path
           | None -> (
               match Sys.getenv_opt "BENCH_PERF_OUT" with
               | Some path -> path
               | None ->
                   Option.value (Perf.discover_baseline ())
                     ~default:"bench-perf.json")
         in
         Perf.run ~out ());
      if scale_tier then Exp_scale.run scale;
      if trend then Trend.run ())
