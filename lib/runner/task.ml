type 'a t = {
  key : string;
  encode : 'a -> Telemetry.Jsonx.t;
  decode : Telemetry.Jsonx.t -> 'a option;
  compute : Prelude.Rng.t -> 'a;
}

let make ~key ~encode ~decode compute = { key; encode; decode; compute }

let key_of ~family fields =
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) fields
  in
  family ^ ":" ^ Telemetry.Jsonx.to_string (Telemetry.Jsonx.Obj sorted)

let rng ~seed t = Prelude.Rng.of_key ~seed t.key

let float_array a =
  Telemetry.Jsonx.List (Array.to_list (Array.map (fun x -> Telemetry.Jsonx.Float x) a))

let to_float_array = function
  | Telemetry.Jsonx.List items ->
      let floats = List.filter_map Telemetry.Jsonx.to_float_opt items in
      if List.length floats = List.length items then
        Some (Array.of_list floats)
      else None
  | _ -> None

let int_field name json =
  match Telemetry.Jsonx.member name json with
  | Some (Telemetry.Jsonx.Int i) -> Some i
  | _ -> None

let float_field name json =
  Option.bind (Telemetry.Jsonx.member name json) Telemetry.Jsonx.to_float_opt
