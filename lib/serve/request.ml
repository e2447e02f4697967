type op =
  | Ne of { n : int }
  | Payoff of { profile : Macgame.Profile.t }
  | Welfare of { n : int; w : int }
  | Tau of { n : int; w : int }
  | Batch of t list

and t = {
  id : Telemetry.Jsonx.t;
  op : op;
  deadline_ms : float option;
}

let max_n = 10_000
let max_window = 1 lsl 20
let max_profile = 10_000
let max_batch = 1_024

let id_of json =
  match Telemetry.Jsonx.member "id" json with
  | Some v -> v
  | None -> Telemetry.Jsonx.Null

let int_field name json =
  match Telemetry.Jsonx.member name json with
  | Some (Telemetry.Jsonx.Int v) -> Ok v
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let bounded_field name ~limit json =
  Result.bind (int_field name json) (fun v ->
      if v < 1 then Error (Printf.sprintf "field %S must be >= 1" name)
      else if v > limit then
        Error (Printf.sprintf "field %S must be <= %d" name limit)
      else Ok v)

(* A profile entry is either a bare window (the historical CW-only wire
   format, kept as shorthand) or a strategy object
   [{"cw": …, "aifs": …?, "txop": …?, "rate": …?}]. *)
let profile_field json =
  match Telemetry.Jsonx.member "profile" json with
  | Some (Telemetry.Jsonx.List items) when List.length items > max_profile ->
      Error
        (Printf.sprintf "field \"profile\" must have at most %d entries"
           max_profile)
  | Some (Telemetry.Jsonx.List _ as items) -> (
      match Macgame.Profile.of_json items with
      | Ok profile -> (
          match
            Array.find_opt
              (fun (s : Dcf.Strategy_space.t) -> s.cw > max_window)
              profile
          with
          | Some s ->
              Error
                (Printf.sprintf "field \"profile\": cw must be <= %d (got %d)"
                   max_window s.cw)
          | None -> Ok profile)
      | Error reason ->
          Error (Printf.sprintf "field \"profile\": %s" reason))
  | Some _ -> Error "field \"profile\" must be a non-empty list"
  | None -> Error "missing field \"profile\""

let deadline_field json =
  match Telemetry.Jsonx.member "deadline_ms" json with
  | None -> Ok None
  | Some v -> (
      match Telemetry.Jsonx.to_float_opt v with
      | Some d when d >= 0. -> Ok (Some d)
      | _ -> Error "field \"deadline_ms\" must be a number >= 0")

(* [depth] guards against nested batches: a batch member must be a leaf
   operation, so a request line bounds the work it names. *)
let rec of_json ~depth json =
  let ( let* ) = Result.bind in
  let* deadline_ms = deadline_field json in
  let leaf op = Ok { id = id_of json; op; deadline_ms } in
  match Telemetry.Jsonx.member "op" json with
  | Some (Telemetry.Jsonx.String "ne") ->
      let* n = bounded_field "n" ~limit:max_n json in
      leaf (Ne { n })
  | Some (Telemetry.Jsonx.String "payoff") ->
      let* profile = profile_field json in
      leaf (Payoff { profile })
  | Some (Telemetry.Jsonx.String "welfare") ->
      let* n = bounded_field "n" ~limit:max_n json in
      let* w = bounded_field "w" ~limit:max_window json in
      leaf (Welfare { n; w })
  | Some (Telemetry.Jsonx.String "tau") ->
      let* n = bounded_field "n" ~limit:max_n json in
      let* w = bounded_field "w" ~limit:max_window json in
      leaf (Tau { n; w })
  | Some (Telemetry.Jsonx.String "batch") ->
      if depth > 0 then Error "batch requests may not nest"
      else
        let* members =
          match Telemetry.Jsonx.member "requests" json with
          | Some (Telemetry.Jsonx.List items) when List.length items > max_batch
            ->
              Error
                (Printf.sprintf
                   "field \"requests\" must have at most %d members" max_batch)
          | Some (Telemetry.Jsonx.List items) when items <> [] ->
              let rec parse acc = function
                | [] -> Ok (List.rev acc)
                | item :: rest ->
                    let* req = of_json ~depth:(depth + 1) item in
                    parse (req :: acc) rest
              in
              parse [] items
          | Some _ -> Error "field \"requests\" must be a non-empty list"
          | None -> Error "missing field \"requests\""
        in
        leaf (Batch members)
  | Some (Telemetry.Jsonx.String other) ->
      Error (Printf.sprintf "unknown op %S" other)
  | Some _ -> Error "field \"op\" must be a string"
  | None -> Error "missing field \"op\""

let of_line line =
  match Telemetry.Jsonx.parse line with
  | exception Telemetry.Jsonx.Parse_error msg ->
      Error (Printf.sprintf "malformed JSON: %s" msg)
  | json -> of_json ~depth:0 json
