module Jx = Telemetry.Jsonx

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

(* {2 One pass}

   A line is read once, by [Jx]'s reader: each envelope field the
   protocol names lands in a slot as it streams past (the first of a
   repeated key counts), and every other value is checked and dropped.
   Only the id and strategy objects become trees.  A refusal is judged
   from the slots after the whole line has been read, so malformed JSON
   anywhere outranks it, and the slots are judged in a fixed order —
   the deadline, then the op, then the op's fields, n before w — however
   the line orders its keys. *)

(* The envelope's keys.  "requests" comes last, so a batch member reads
   the same indices without it: a nested batch is refused before its
   members matter. *)
let keys = [| "id"; "op"; "n"; "w"; "profile"; "deadline_ms"; "requests" |]
let member_keys = Array.sub keys 0 (Array.length keys - 1)
let key_id = 0
let key_op = 1
let key_n = 2
let key_w = 3
let key_profile = 4
let key_deadline = 5

(* Op names, by the indices [slots.op] holds. *)
let ops = [| "ne"; "payoff"; "welfare"; "tau"; "batch" |]
let op_ne = 0
let op_payoff = 1
let op_welfare = 2
let op_tau = 3

(* What an integer field held. *)
let absent = 0
let integer = 1
let not_integer = 2

let missing_op = "missing field \"op\""
let bad_deadline = "field \"deadline_ms\" must be a number >= 0"

type slots = {
  mutable id : Jx.t;
  mutable op : int;  (** index in [ops], or -1 with the refusal in [op_error] *)
  mutable op_error : string;
  mutable n : int;
  mutable n_kind : int;
  mutable w : int;
  mutable w_kind : int;
  mutable deadline : float option;
  mutable deadline_ok : bool;
  mutable profile : (Macgame.Profile.t, string) result;
  mutable requests : (t list, string) result;
}

(* A profile as it streams past: entries decoded up to [max_profile],
   how many there were, the first refused one's reason and the first
   window over [max_window] (0 when none). *)
type entries = {
  mutable buf : Dcf.Strategy_space.t array;
  mutable len : int;
  mutable count : int;
  mutable refused : string option;
  mutable wide : int;
}

(* Fills a profile buffer's unused cells. *)
let placeholder = Dcf.Strategy_space.of_cw 1

let push e (s : Dcf.Strategy_space.t) =
  if e.len = Array.length e.buf then begin
    let buf = Array.make (2 * e.len) s in
    Array.blit e.buf 0 buf 0 e.len;
    e.buf <- buf
  end;
  e.buf.(e.len) <- s;
  e.len <- e.len + 1;
  if e.wide = 0 && s.cw > max_window then e.wide <- s.cw

let decoded e = function
  | Ok s -> push e s
  | Error reason -> e.refused <- Some reason

(* A profile entry is either a bare window (the historical CW-only wire
   format, kept as shorthand) or a strategy object
   [{"cw": …, "aifs": …?, "txop": …?, "rate": …?}].  [Strategy_space]
   owns the rules and their refusals; an accepted window skips the
   tree. *)
let entry r e =
  e.count <- e.count + 1;
  if e.count > max_profile || e.refused != None then ignore (Jx.value r)
  else if Jx.is_int r then begin
    let w = Jx.int r in
    if w >= 1 then push e (Dcf.Strategy_space.of_cw w)
    else decoded e (Dcf.Strategy_space.of_json (Jx.Int w))
  end
  else decoded e (Dcf.Strategy_space.of_json (Jx.value r))

let in_profile reason = Error (Printf.sprintf "field \"profile\": %s" reason)

let profile_of r =
  let p = placeholder in
  let e =
    { buf = [| p; p; p; p; p; p; p; p |]; len = 0; count = 0; refused = None;
      wide = 0 }
  in
  if not (Jx.items r (fun () -> entry r e)) then begin
    ignore (Jx.value r);
    Error "field \"profile\" must be a non-empty list"
  end
  else if e.count > max_profile then
    Error
      (Printf.sprintf "field \"profile\" must have at most %d entries"
         max_profile)
  else if e.count = 0 then (
    (* [Profile] words the refusal of an empty list. *)
    match Macgame.Profile.of_json (Jx.List []) with
    | Error reason -> in_profile reason
    | accepted -> accepted)
  else
    match e.refused with
    | Some reason -> in_profile reason
    | None when e.wide > 0 ->
        Error
          (Printf.sprintf "field \"profile\": cw must be <= %d (got %d)"
             max_window e.wide)
    | None -> Ok (Array.sub e.buf 0 e.len)

let read_op r s =
  let i = Jx.name r ops in
  if i >= 0 then s.op <- i
  else
    s.op_error <-
      (match Jx.value r with
      | Jx.String other -> Printf.sprintf "unknown op %S" other
      | _ -> "field \"op\" must be a string")

(* Reads an integer field's value that is not an integer. *)
let other_value r =
  ignore (Jx.value r);
  not_integer

let read_deadline r s =
  let d =
    if Jx.is_int r then float_of_int (Jx.int r)
    else match Jx.value r with Jx.Float f -> f | _ -> -1.
  in
  if d >= 0. then s.deadline <- Some d else s.deadline_ok <- false

(* Why an integer field with [limit] refuses, if it does. *)
let bounded name ~limit kind v =
  if kind = absent then Some (Printf.sprintf "missing field %S" name)
  else if kind = not_integer then
    Some (Printf.sprintf "field %S must be an integer" name)
  else if v < 1 then Some (Printf.sprintf "field %S must be >= 1" name)
  else if v > limit then Some (Printf.sprintf "field %S must be <= %d" name limit)
  else None

let leaf s op = Ok { id = s.id; op; deadline_ms = s.deadline }

(* The slots judged as a request, refusals in the protocol's order. *)
let request ~depth s =
  if not s.deadline_ok then Error bad_deadline
  else if s.op < 0 then Error s.op_error
  else if s.op = op_ne then
    match bounded "n" ~limit:max_n s.n_kind s.n with
    | Some reason -> Error reason
    | None -> leaf s (Ne { n = s.n })
  else if s.op = op_payoff then
    match s.profile with
    | Ok profile -> leaf s (Payoff { profile })
    | Error reason -> Error reason
  else if s.op = op_welfare || s.op = op_tau then
    match bounded "n" ~limit:max_n s.n_kind s.n with
    | Some reason -> Error reason
    | None -> (
        match bounded "w" ~limit:max_window s.w_kind s.w with
        | Some reason -> Error reason
        | None ->
            let n = s.n and w = s.w in
            leaf s (if s.op = op_tau then Tau { n; w } else Welfare { n; w }))
  else if depth > 0 then Error "batch requests may not nest"
  else
    match s.requests with
    | Ok members -> leaf s (Batch members)
    | Error reason -> Error reason

(* [depth] guards against nested batches: a batch member must be a leaf
   operation, so a request line bounds the work it names. *)
let rec slots_of ~depth r =
  let s =
    {
      id = Jx.Null; op = -1; op_error = missing_op; n = 0; n_kind = absent;
      w = 0; w_kind = absent; deadline = None; deadline_ok = true;
      profile = Error "missing field \"profile\"";
      requests = Error "missing field \"requests\"";
    }
  in
  Jx.fields r
    (if depth = 0 then keys else member_keys)
    (fun k ->
      if k = key_id then s.id <- Jx.value r
      else if k = key_op then read_op r s
      else if k = key_n then
        if Jx.is_int r then begin
          s.n <- Jx.int r;
          s.n_kind <- integer
        end
        else s.n_kind <- other_value r
      else if k = key_w then
        if Jx.is_int r then begin
          s.w <- Jx.int r;
          s.w_kind <- integer
        end
        else s.w_kind <- other_value r
      else if k = key_profile then s.profile <- profile_of r
      else if k = key_deadline then read_deadline r s
      else s.requests <- members_of r);
  s

(* Batch members in order: decoded up to [max_batch], the first refusal
   kept. *)
and members_of r =
  let count = ref 0 and decoded = ref [] and refused = ref None in
  let member () =
    incr count;
    if !count > max_batch || Option.is_some !refused then ignore (Jx.value r)
    else
      match request ~depth:1 (slots_of ~depth:1 r) with
      | Ok req -> decoded := req :: !decoded
      | Error reason -> refused := Some reason
  in
  if not (Jx.items r member) then begin
    ignore (Jx.value r);
    Error "field \"requests\" must be a non-empty list"
  end
  else if !count > max_batch then
    Error
      (Printf.sprintf "field \"requests\" must have at most %d members"
         max_batch)
  else if !count = 0 then Error "field \"requests\" must be a non-empty list"
  else
    match !refused with
    | Some reason -> Error reason
    | None -> Ok (List.rev !decoded)

let decode line =
  let r = Jx.reader line in
  match
    let s = slots_of ~depth:0 r in
    Jx.finish r;
    s
  with
  | exception Jx.Parse_error msg ->
      Error (Jx.Null, Printf.sprintf "malformed JSON: %s" msg)
  | s -> (
      match request ~depth:0 s with
      | Ok req -> Ok req
      | Error reason -> Error (s.id, reason))

let of_line line =
  match decode line with Ok req -> Ok req | Error (_, reason) -> Error reason
