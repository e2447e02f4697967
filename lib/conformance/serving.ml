module Jx = Telemetry.Jsonx

(* Every serving check is fast: the grids are small, the oracles analytic,
   and the store lives in a throwaway temp directory. *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun entry -> rm_rf (Filename.concat path entry))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let dir = Filename.temp_file "conformance_serving" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Drive one request line through a server and decode the reply. *)
let ask server line =
  match Serve.Server.handle_line server line with
  | None -> failwith "no reply"
  | Some reply -> Jx.parse reply

let reply_ok reply =
  match Jx.member "ok" reply with Some (Jx.Bool b) -> b | _ -> false

let reply_tier reply =
  match Jx.member "tier" reply with Some (Jx.String t) -> t | _ -> "?"

let result_float field reply =
  match
    Option.bind (Jx.member "result" reply) (fun r ->
        Option.bind (Jx.member field r) Jx.to_float_opt)
  with
  | Some v -> v
  | None -> nan

let result_floats field reply =
  match Option.bind (Jx.member "result" reply) (Jx.member field) with
  | Some (Jx.List items) ->
      Array.of_list
        (List.map
           (fun v -> Option.value (Jx.to_float_opt v) ~default:nan)
           items)
  | _ -> [||]

let grid = [ (2, 16); (2, 64); (5, 32); (5, 128); (10, 32); (10, 256) ]
let profile = [| 16; 32; 32; 64 |]

let tau_line ~n ~w =
  Printf.sprintf "{\"op\":\"tau\",\"n\":%d,\"w\":%d}" n w

let welfare_line ~n ~w =
  Printf.sprintf "{\"op\":\"welfare\",\"n\":%d,\"w\":%d}" n w

let payoff_line profile =
  Printf.sprintf "{\"op\":\"payoff\",\"profile\":[%s]}"
    (String.concat "," (Array.to_list (Array.map string_of_int profile)))

(* {2 Checks} *)

(* Served answers must be bit-identical to direct oracle evaluation: the
   wire format renders floats at full precision and the server evaluates
   through the same oracle code path (single requests solve cold). *)
let bitmatch_uniform ?telemetry () =
  let params = Dcf.Params.default in
  let server = Serve.Server.create (Macgame.Oracle.analytic params) in
  let direct = Macgame.Oracle.analytic params in
  let mismatches = ref [] in
  List.iter
    (fun (n, w) ->
      let view = Macgame.Oracle.uniform direct ~n ~w in
      let tau_reply = ask server (tau_line ~n ~w) in
      let welfare_reply = ask server (welfare_line ~n ~w) in
      let ok =
        reply_ok tau_reply && reply_ok welfare_reply
        && bits_equal (result_float "tau" tau_reply) view.tau
        && bits_equal (result_float "p" tau_reply) view.p
        && bits_equal (result_float "utility" welfare_reply) view.utility
        && bits_equal
             (result_float "welfare" welfare_reply)
             (float_of_int n *. view.utility)
      in
      if not ok then mismatches := (n, w) :: !mismatches)
    grid;
  Check.v ~id:"serving.bitmatch.uniform" ~group:"serving"
    ~detail:
      (match !mismatches with
      | [] ->
          Printf.sprintf "%d (n, w) points: served tau/p/utility/welfare \
                          bit-identical to direct oracle"
            (List.length grid)
      | l ->
          Printf.sprintf "%d/%d points differ (e.g. n=%d w=%d)" (List.length l)
            (List.length grid) (fst (List.hd l)) (snd (List.hd l)))
    ~margin:(if !mismatches = [] then 0. else infinity)
    ()
  |> fun check ->
  Check.emit ?telemetry check;
  check

let bitmatch_payoff ?telemetry () =
  let params = Dcf.Params.default in
  let server = Serve.Server.create (Macgame.Oracle.analytic params) in
  let direct = Macgame.Oracle.payoffs (Macgame.Oracle.analytic params) profile in
  let reply = ask server (payoff_line profile) in
  let served = result_floats "payoffs" reply in
  let ok =
    reply_ok reply
    && Array.length served = Array.length direct
    && Array.for_all2 bits_equal served direct
  in
  Check.v ~id:"serving.bitmatch.payoff" ~group:"serving"
    ~detail:
      (if ok then "heterogeneous profile payoffs bit-identical through the wire"
       else "served payoffs differ from direct oracle evaluation")
    ~margin:(if ok then 0. else infinity)
    ()
  |> fun check ->
  Check.emit ?telemetry check;
  check

(* A server restarted onto the same store directory must answer every
   repeat query from the store tier, bit-identically — persistence is only
   worth having if it is indistinguishable from recomputing. *)
let restart_store_tier ?telemetry () =
  with_temp_dir (fun dir ->
      let params = Dcf.Params.default in
      let first_pass =
        Store.with_store dir (fun store ->
            let server =
              Serve.Server.create
                (Macgame.Oracle.create ~backend:Analytic ~store params)
            in
            List.map
              (fun (n, w) ->
                let r = ask server (tau_line ~n ~w) in
                (reply_tier r, result_float "tau" r))
              grid)
      in
      let second_pass =
        Store.with_store dir (fun store ->
            let server =
              Serve.Server.create
                (Macgame.Oracle.create ~backend:Analytic ~store params)
            in
            List.map
              (fun (n, w) ->
                let r = ask server (tau_line ~n ~w) in
                (reply_tier r, result_float "tau" r))
              grid)
      in
      let cold_ok =
        List.for_all (fun (tier, _) -> tier = "cold") first_pass
      in
      let store_ok =
        List.for_all2
          (fun (_, cold_tau) (tier, tau) ->
            tier = "store" && bits_equal cold_tau tau)
          first_pass second_pass
      in
      let ok = cold_ok && store_ok in
      Check.v ~id:"serving.restart.store_tier" ~group:"serving"
        ~detail:
          (if ok then
             Printf.sprintf
               "restarted server answered all %d repeat queries from the \
                store tier, bit-identically"
               (List.length grid)
           else
             Printf.sprintf "tiers across restart: first [%s], second [%s]"
               (String.concat ";" (List.map fst first_pass))
               (String.concat ";" (List.map fst second_pass)))
        ~margin:(if ok then 0. else infinity)
        ()
      |> fun check ->
      Check.emit ?telemetry check;
      check)

(* A batch envelope's members warm-start from the class τs solved before
   them, trading bit-identity for iterations; the trade is only sound if
   every answer stays within a strict tolerance of the cold solve.  1e-9
   relative is ~5 orders of magnitude above double noise and ~5 below
   anything the game layer can distinguish.  The envelope is shaped like
   the serve_cold benchmark's: one class's window steps by 1 across 8
   payoff members beside fixed classes. *)
let batch_anchor ?telemetry () =
  let params = Dcf.Params.default in
  let tol = 1e-9 in
  let registry = Telemetry.Registry.create () in
  let server =
    Serve.Server.create (Macgame.Oracle.create ~telemetry:registry params)
  in
  let members =
    List.init 8 (fun k -> [| 500; 64 + k; 33; 900; 64 + k; 500; 128 |])
  in
  let reply =
    ask server
      (Printf.sprintf "{\"op\":\"batch\",\"requests\":[%s]}"
         (String.concat "," (List.map payoff_line members)))
  in
  let replies =
    match Option.bind (Jx.member "result" reply) (Jx.member "replies") with
    | Some (Jx.List replies) -> replies
    | _ -> []
  in
  let cold = Macgame.Oracle.analytic params in
  let gap member reply =
    let served = result_floats "payoffs" reply in
    let direct = Macgame.Oracle.payoffs cold member in
    if not (reply_ok reply && Array.length served = Array.length direct) then
      infinity
    else
      Array.fold_left Float.max 0.
        (Array.map2
           (fun u c -> Float.abs (u -. c) /. Float.abs c)
           served direct)
  in
  let worst =
    if List.length replies <> List.length members then infinity
    else
      List.fold_left2
        (fun acc m r -> Float.max acc (gap m r))
        0. members replies
  in
  let warm =
    Telemetry.Metric.observations
      (Telemetry.Registry.histogram registry "oracle.solve.iterations.warm")
  in
  (* A vacuous pass (no member actually warm-started) must fail: the
     anchor exists to bound the warm path, not the cold one. *)
  let margin =
    if warm < List.length members - 1 then infinity else worst /. tol
  in
  Check.v ~id:"serving.batch.anchor" ~group:"serving"
    ~detail:
      (Printf.sprintf
         "%d batch-warm solves of %d members within %.0e relative of cold"
         warm (List.length members) tol)
    ~margin ()
  |> fun check ->
  Check.emit ?telemetry check;
  check

(* Malformed input must produce error replies, never exceptions and never
   [ok: true]. *)
let error_replies ?telemetry () =
  let server = Serve.Server.create (Macgame.Oracle.analytic Dcf.Params.default) in
  let erroneous =
    [
      "not json at all";
      "{\"op\":\"frobnicate\"}";
      "{\"op\":\"tau\",\"n\":0,\"w\":32}";
      "{\"op\":\"tau\",\"n\":\"five\",\"w\":32}";
      "{\"op\":\"payoff\",\"profile\":[]}";
      "{\"op\":\"batch\",\"requests\":[{\"op\":\"batch\",\"requests\":[]}]}";
      "{\"op\":\"tau\",\"n\":5,\"w\":32,\"deadline_ms\":0}";
    ]
  in
  let failures =
    List.filter
      (fun line ->
        match ask server line with
        | reply -> reply_ok reply
        | exception _ -> true)
      erroneous
  in
  let blank_ok = Serve.Server.handle_line server "   " = None in
  let ok = failures = [] && blank_ok in
  Check.v ~id:"serving.errors.replies" ~group:"serving"
    ~detail:
      (if ok then
         Printf.sprintf "%d malformed/invalid/expired inputs all answered \
                         with error replies"
           (List.length erroneous)
       else "some invalid input did not produce an error reply")
    ~margin:(if ok then 0. else infinity)
    ()
  |> fun check ->
  Check.emit ?telemetry check;
  check

let checks ?telemetry ~tier () =
  if not (Check.runs_in Check.Fast ~at:tier) then []
  else
    [
      bitmatch_uniform ?telemetry ();
      bitmatch_payoff ?telemetry ();
      restart_store_tier ?telemetry ();
      batch_anchor ?telemetry ();
      error_replies ?telemetry ();
    ]
