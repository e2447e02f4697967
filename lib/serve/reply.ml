module Jx = Telemetry.Jsonx

type t = Jx.t

(* Per tier: the field [ok] puts in a reply, built once so that a memo
   hit allocates none, and the bytes [to_line] writes between such a
   reply's id and its elapsed time.  Both spell the tier through
   [Oracle.tier_name]. *)
let tiered tier =
  let name = Jx.String (Macgame.Oracle.tier_name tier) in
  ( ("tier", name),
    Printf.sprintf {|,"ok":true,"tier":%s,"elapsed_ms":|} (Jx.to_string name) )

let memo_field, memo_prefix = tiered Macgame.Oracle.Memo
let store_field, store_prefix = tiered Macgame.Oracle.Store
let cold_field, cold_prefix = tiered Macgame.Oracle.Cold

(* [write] below matches the trees [ok] and [error] build, key for key. *)
let ok ~id ?tier ~elapsed_ms result =
  let tail = [ ("elapsed_ms", Jx.Float elapsed_ms); ("result", result) ] in
  Jx.Obj
    (("id", id)
    :: ("ok", Jx.Bool true)
    ::
    (match (tier : Macgame.Oracle.tier option) with
    | Some Memo -> memo_field :: tail
    | Some Store -> store_field :: tail
    | Some Cold -> cold_field :: tail
    | None -> tail))

let error ~id reason =
  Jx.Obj [ ("id", id); ("ok", Jx.Bool false); ("error", Jx.String reason) ]

(* {2 Rendering}

   The envelopes [ok] and [error] build are written with their keys and
   punctuation as literals, pre-escaped, and only the id, elapsed time,
   result and error text through [Jx]'s renderers; a batch's member
   replies are envelopes too.  Any other tree is rendered whole.  Either
   way the bytes are [Jx.to_string]'s. *)

(* The prefix of a tier field [ok] put in a reply — it is one of the three
   above, so a physical match finds it without reading the name — or ""
   for any other field. *)
let tier_prefix field =
  if field == memo_field then memo_prefix
  else if field == store_field then store_prefix
  else if field == cold_field then cold_prefix
  else ""

let write_id w id =
  Jx.write_raw w {|{"id":|};
  Jx.write w id

let rec write w (t : t) =
  match t with
  | Obj
      [
        ("id", id);
        ("ok", Bool true);
        field;
        ("elapsed_ms", Float elapsed_ms);
        ("result", result);
      ] ->
      let prefix = tier_prefix field in
      if String.length prefix = 0 then Jx.write w t
      else write_ok w id prefix elapsed_ms result
  | Obj
      [
        ("id", id);
        ("ok", Bool true);
        ("elapsed_ms", Float elapsed_ms);
        ("result", result);
      ] ->
      write_ok w id {|,"ok":true,"elapsed_ms":|} elapsed_ms result
  | Obj [ ("id", id); ("ok", Bool false); ("error", String reason) ] ->
      write_id w id;
      Jx.write_raw w {|,"ok":false,"error":|};
      Jx.write_string w reason;
      Jx.write_raw w "}"
  | t -> Jx.write w t

(* [prefix] runs from after the id to the elapsed time. *)
and write_ok w id prefix elapsed_ms result =
  write_id w id;
  Jx.write_raw w prefix;
  Jx.write_float w elapsed_ms;
  Jx.write_raw w {|,"result":|};
  write_result w result;
  Jx.write_raw w "}"

(* A batch's result lists its members' replies. *)
and write_result w = function
  | Obj [ ("replies", List (first :: rest)) ] ->
      Jx.write_raw w {|{"replies":[|};
      write w first;
      List.iter
        (fun reply ->
          Jx.write_raw w ",";
          write w reply)
        rest;
      Jx.write_raw w "]}"
  | result -> Jx.write w result

let to_line t =
  let w = Jx.writer () in
  write w t;
  Jx.contents w
