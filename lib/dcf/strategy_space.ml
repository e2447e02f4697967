type t = { cw : int; aifs : int; txop_frames : int; rate : float }

let of_cw w = { cw = w; aifs = 0; txop_frames = 1; rate = 1.0 }
let is_degenerate s = s.aifs = 0 && s.txop_frames = 1 && s.rate = 1.0

let compare a b =
  let c = Stdlib.compare a.cw b.cw in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.aifs b.aifs in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.txop_frames b.txop_frames in
      if c <> 0 then c else Stdlib.compare a.rate b.rate

let equal a b = compare a b = 0

let validate ?cw_max s =
  if s.cw < 1 then Error (Printf.sprintf "cw must be >= 1 (got %d)" s.cw)
  else
    match cw_max with
    | Some hi when s.cw > hi ->
        Error (Printf.sprintf "cw %d exceeds cw_max %d" s.cw hi)
    | _ ->
        if s.aifs < 0 then
          Error (Printf.sprintf "aifs must be >= 0 (got %d)" s.aifs)
        else if s.txop_frames < 1 then
          Error
            (Printf.sprintf "txop_frames must be >= 1 (got %d)" s.txop_frames)
        else if not (Float.is_finite s.rate && s.rate > 0.) then
          Error (Printf.sprintf "rate must be finite and > 0 (got %g)" s.rate)
        else Ok ()

let pp fmt s =
  if is_degenerate s then Format.fprintf fmt "%d" s.cw
  else
    Format.fprintf fmt "(cw=%d,aifs=%d,txop=%d,rate=%g)" s.cw s.aifs
      s.txop_frames s.rate

(* Degenerate strategies keep the bare "w<cw>" shape so CW-only store keys
   stay recognisable; %h makes the rate component bit-faithful.  The
   degenerate key, the one every CW-only batch leaf builds, skips Printf. *)
let to_key s =
  if is_degenerate s then begin
    let buf = Buffer.create 8 in
    Buffer.add_char buf 'w';
    Telemetry.Jsonx.add_int buf s.cw;
    Buffer.contents buf
  end
  else Printf.sprintf "w%d.a%d.t%d.r%h" s.cw s.aifs s.txop_frames s.rate

let to_json s =
  if is_degenerate s then Telemetry.Jsonx.Int s.cw
  else
    Telemetry.Jsonx.Obj
      [
        ("cw", Telemetry.Jsonx.Int s.cw);
        ("aifs", Telemetry.Jsonx.Int s.aifs);
        ("txop", Telemetry.Jsonx.Int s.txop_frames);
        ("rate", Telemetry.Jsonx.Float s.rate);
      ]

let of_json json =
  let open Telemetry.Jsonx in
  match json with
  | Int w when w >= 1 -> Ok (of_cw w)
  | Int w -> Error (Printf.sprintf "cw must be >= 1 (got %d)" w)
  | Obj _ -> (
      let int_field name ~default =
        match member name json with
        | Some (Int v) -> Ok v
        | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
        | None -> Ok default
      in
      let ( let* ) = Result.bind in
      let* cw =
        match member "cw" json with
        | Some (Int v) -> Ok v
        | Some _ -> Error "field \"cw\" must be an integer"
        | None -> Error "missing field \"cw\""
      in
      let* aifs = int_field "aifs" ~default:0 in
      let* txop_frames = int_field "txop" ~default:1 in
      let* rate =
        match member "rate" json with
        | None -> Ok 1.0
        | Some v -> (
            match to_float_opt v with
            | Some r -> Ok r
            | None -> Error "field \"rate\" must be a number")
      in
      let s = { cw; aifs; txop_frames; rate } in
      Result.map (fun () -> s) (validate s))
  | _ -> Error "strategy must be an integer CW or an object"

type times = { ts : float; ts1 : float; tc : float; payload : float }

let times (p : Params.t) ~(base : Timing.t) s =
  if s.txop_frames = 1 && s.rate = 1.0 then
    { ts = base.ts; ts1 = base.ts; tc = base.tc; payload = base.payload }
  else
    let payload_airtime =
      float_of_int p.payload_bits /. (p.bit_rate *. s.rate)
    in
    let burst = Timing.burst p ~frames:s.txop_frames ~payload_airtime in
    let single = Timing.burst p ~frames:1 ~payload_airtime in
    { ts = burst.ts; ts1 = single.ts; tc = burst.tc; payload = payload_airtime }

type space = {
  cw_min : int;
  cw_max : int;
  aifs_max : int;
  txop_max : int;
  rates : float array;
}

let edca_space ?(aifs_max = 4) ?(txop_max = 4) ?(rates = [| 1.0 |]) ~cw_max ()
    =
  { cw_min = 1; cw_max; aifs_max; txop_max; rates }

let space_validate sp =
  if sp.cw_min < 1 || sp.cw_max < sp.cw_min then
    Error
      (Printf.sprintf "cw range [%d, %d] is invalid" sp.cw_min sp.cw_max)
  else if sp.aifs_max < 0 then Error "aifs_max must be >= 0"
  else if sp.txop_max < 1 then Error "txop_max must be >= 1"
  else if Array.length sp.rates = 0 then Error "rates must be non-empty"
  else if not (Array.exists (fun r -> r = 1.0) sp.rates) then
    Error "rates must include the base rate 1.0"
  else if not (Array.for_all (fun r -> Float.is_finite r && r > 0.) sp.rates)
  then Error "rates must be finite and > 0"
  else Ok ()

let mem sp s =
  s.cw >= sp.cw_min && s.cw <= sp.cw_max && s.aifs >= 0
  && s.aifs <= sp.aifs_max && s.txop_frames >= 1
  && s.txop_frames <= sp.txop_max
  && Array.exists (fun r -> r = s.rate) sp.rates
