type t = Telemetry.Jsonx.t

let tier_field tier =
  ("tier", Telemetry.Jsonx.String (Macgame.Oracle.tier_name tier))

(* One field per tier, built once: a memo hit allocates none. *)
let memo_field = tier_field Macgame.Oracle.Memo
let store_field = tier_field Macgame.Oracle.Store
let cold_field = tier_field Macgame.Oracle.Cold

let ok ~id ?tier ~elapsed_ms result =
  let tail =
    [ ("elapsed_ms", Telemetry.Jsonx.Float elapsed_ms); ("result", result) ]
  in
  Telemetry.Jsonx.Obj
    (("id", id)
    :: ("ok", Telemetry.Jsonx.Bool true)
    ::
    (match (tier : Macgame.Oracle.tier option) with
    | Some Memo -> memo_field :: tail
    | Some Store -> store_field :: tail
    | Some Cold -> cold_field :: tail
    | None -> tail))

let error ~id reason =
  Telemetry.Jsonx.Obj
    [
      ("id", id);
      ("ok", Telemetry.Jsonx.Bool false);
      ("error", Telemetry.Jsonx.String reason);
    ]

let to_line t = Telemetry.Jsonx.to_string t
