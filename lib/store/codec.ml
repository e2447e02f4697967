exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let magic = "MACSTORE1"
let version = 1

let header =
  Telemetry.Jsonx.to_string
    (Telemetry.Jsonx.Obj
       [
         ("magic", Telemetry.Jsonx.String magic);
         ("version", Telemetry.Jsonx.Int version);
       ])

let check_header line =
  match Telemetry.Jsonx.parse line with
  | exception Telemetry.Jsonx.Parse_error msg ->
      corrupt "unreadable segment header: %s" msg
  | json -> (
      (match Telemetry.Jsonx.member "magic" json with
      | Some (Telemetry.Jsonx.String m) when String.equal m magic -> ()
      | _ -> corrupt "bad magic (not a store segment)");
      match Telemetry.Jsonx.member "version" json with
      | Some (Telemetry.Jsonx.Int v) when v = version -> ()
      | Some (Telemetry.Jsonx.Int v) ->
          corrupt "unsupported store version %d (expected %d)" v version
      | _ -> corrupt "segment header missing version")

let payload ~key value =
  Telemetry.Jsonx.to_string
    (Telemetry.Jsonx.Obj [ ("k", Telemetry.Jsonx.String key); ("v", value) ])

(* The checksum covers the rendered payload bytes, not the parsed value:
   Jsonx is not render-stable through a parse (integral floats come back
   as ints), so hashing the re-rendering would reject entries the codec
   itself wrote.  Hashing the raw bytes makes verification exact and
   catches any flipped bit in either the payload or the digest itself. *)
let digest payload = Prelude.Util.hex64 (Prelude.Util.fnv1a64 payload)

let encode ~key value =
  let payload = payload ~key value in
  digest payload ^ ":" ^ payload

(* The bytes after the colon of a line whose digest matches them. *)
let checked_payload line =
  let n = String.length line in
  if n < 18 || line.[16] <> ':' then None
  else
    let payload = String.sub line 17 (n - 17) in
    if String.equal (String.sub line 0 16) (digest payload) then Some payload
    else None

let entry payload =
  match Telemetry.Jsonx.parse payload with
  | exception Telemetry.Jsonx.Parse_error _ -> None
  | json -> (
      match
        (Telemetry.Jsonx.member "k" json, Telemetry.Jsonx.member "v" json)
      with
      | Some (Telemetry.Jsonx.String key), Some value -> Some (key, value)
      | _ -> None)

let decode line = Option.bind (checked_payload line) entry

let verify line =
  Option.bind (checked_payload line) (fun payload ->
      Option.map (fun (key, _) -> (key, payload)) (entry payload))

let value payload =
  match entry payload with
  | Some (_, value) -> value
  | None -> corrupt "store payload does not decode"
