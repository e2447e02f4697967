(* bench-smoke: run a tiny instance of each benchmark kernel with a JSONL
   telemetry sink attached, then check the captured stream — every line
   parses as JSON and the expected event kinds are present.  Wired into
   @runtest via the @bench-smoke alias so the instrumented paths stay
   exercised without paying for a full Bechamel run. *)

let params = Dcf.Params.default

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "bench-smoke FAIL: %s\n" name
  end

let () =
  let registry = Telemetry.Registry.create ~label:"bench-smoke" () in
  let path = Filename.temp_file "bench_smoke" ".jsonl" in
  let sink = Telemetry.Sink.jsonl path in
  Telemetry.Registry.add_sink registry sink;
  (* One tiny run per kernel family. *)
  ignore
    (Dcf.Solver.solve_profile ~telemetry:registry params
       (Array.init 8 (fun i -> 64 + i)));
  ignore (Dcf.Solver.solve_homogeneous ~telemetry:registry params ~n:8 ~w:128);
  ignore
    (Dcf.Solver.solve_classes ~telemetry:registry params [ (83, 2); (166, 3) ]);
  ignore
    (Netsim.Slotted.run ~telemetry:registry
       { params; cws = Array.make 5 128; duration = 0.05; seed = 1 });
  let adjacency =
    Array.init 6 (fun i ->
        List.filter (fun j -> j >= 0 && j < 6 && j <> i) [ i - 1; i + 1 ])
  in
  ignore
    (Netsim.Spatial.run ~telemetry:registry
       {
         params = Dcf.Params.rts_cts;
         adjacency;
         cws = Array.make 6 32;
         duration = 0.05;
         seed = 1;
       });
  let oracle = Macgame.Oracle.create ~telemetry:registry params in
  ignore
    (Macgame.Repeated.run oracle
       ~strategies:(Macgame.Repeated.all_tft ~n:3 ~initials:[| 100; 90; 110 |])
       ~stages:3);
  ignore
    (Macgame.Search.run ~telemetry:registry ~w0:64 ~cw_max:params.cw_max
       (Macgame.Search.of_oracle oracle ~n:3));
  Telemetry.Registry.remove_sink registry sink;
  Telemetry.Sink.close sink;
  (* Validate the capture. *)
  let lines = ref [] in
  let ic = open_in path in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let events =
    List.rev_map
      (fun line ->
        match Telemetry.Jsonx.parse line with
        | json -> Some json
        | exception Telemetry.Jsonx.Parse_error msg ->
            check (Printf.sprintf "line parses (%s): %s" msg line) false;
            None)
      !lines
    |> List.filter_map Fun.id
  in
  check "captured at least one event" (events <> []);
  let names =
    List.filter_map
      (fun json ->
        match Telemetry.Jsonx.member "event" json with
        | Some (Telemetry.Jsonx.String s) -> Some s
        | _ -> None)
      events
  in
  check "every event has a name" (List.length names = List.length events);
  let has name = List.mem name names in
  check "solver_convergence present" (has "solver_convergence");
  check "residual_trajectory present" (has "residual_trajectory");
  check "run_summary present" (has "run_summary");
  check "game_stage present" (has "game_stage");
  check "game_summary present" (has "game_summary");
  check "search_result present" (has "search_result");
  if !failures = 0 then
    Printf.printf "bench-smoke OK: %d events, %d distinct kinds\n"
      (List.length events)
      (List.length (List.sort_uniq compare names))
  else exit 1
