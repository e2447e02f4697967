(* Tests for the serving layer: request parsing (valid forms and every
   malformed-input class), dispatch bit-identity against direct oracle
   calls, batch envelopes, deadline expiry, per-tier accounting, NE-row
   persistence across server restarts, and a socket round-trip. *)

module Jx = Telemetry.Jsonx

let params = Dcf.Params.default
let bits = Int64.bits_of_float

let check_bits msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let temp_dir () =
  let path = Filename.temp_file "test_serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let fresh ?store () =
  let registry = Telemetry.Registry.create ~label:"test-serve" () in
  let oracle = Macgame.Oracle.create ~telemetry:registry ?store params in
  let server = Serve.Server.create ~telemetry:registry oracle in
  let count name =
    Telemetry.Metric.count (Telemetry.Registry.counter registry name)
  in
  (server, oracle, count)

(* Every reply is one JSON line; pull it apart for the assertions. *)
let reply_of_line server line =
  match Serve.Server.handle_line server line with
  | None -> Alcotest.failf "no reply for %S" line
  | Some reply -> Jx.parse reply

let field name json =
  match Jx.member name json with
  | Some v -> v
  | None -> Alcotest.failf "reply missing %S field" name

let float_field name json =
  match Jx.to_float_opt (field name json) with
  | Some v -> v
  | None -> Alcotest.failf "field %S is not a number" name

let string_field name json =
  match field name json with
  | Jx.String s -> s
  | _ -> Alcotest.failf "field %S is not a string" name

let is_ok json = field "ok" json = Jx.Bool true
let error_text json = string_field "error" json

(* {1 Request parsing} *)

let test_parse_ok () =
  let ok line =
    match Serve.Request.of_line line with
    | Ok req -> req
    | Error e -> Alcotest.failf "parse of %S failed: %s" line e
  in
  (match (ok {|{"op":"tau","n":5,"w":32}|}).op with
  | Tau { n = 5; w = 32 } -> ()
  | _ -> Alcotest.fail "tau fields lost");
  (match (ok {|{"op":"welfare","n":2,"w":16}|}).op with
  | Welfare { n = 2; w = 16 } -> ()
  | _ -> Alcotest.fail "welfare fields lost");
  (match (ok {|{"op":"payoff","profile":[16,32,64]}|}).op with
  | Payoff { profile } ->
      Alcotest.(check (array int))
        "payoff windows" [| 16; 32; 64 |]
        (Macgame.Profile.cws profile);
      Alcotest.(check bool)
        "bare windows parse degenerate" true
        (Macgame.Profile.is_degenerate profile)
  | _ -> Alcotest.fail "payoff profile lost");
  (match
     (ok {|{"op":"payoff","profile":[16,{"cw":32,"aifs":2,"txop":3}]}|}).op
   with
  | Payoff { profile } ->
      Alcotest.(check bool)
        "strategy object parsed" true
        (Dcf.Strategy_space.equal profile.(1)
           { Dcf.Strategy_space.cw = 32; aifs = 2; txop_frames = 3;
             rate = 1.0 })
  | _ -> Alcotest.fail "mixed payoff profile lost");
  (match (ok {|{"op":"ne","n":4}|}).op with
  | Ne { n = 4 } -> ()
  | _ -> Alcotest.fail "ne fields lost");
  let req = ok {|{"id":7,"op":"tau","n":5,"w":32,"deadline_ms":250}|} in
  Alcotest.(check bool) "id echoed" true (req.id = Jx.Int 7);
  Alcotest.(check bool) "deadline kept" true (req.deadline_ms = Some 250.);
  match (ok {|{"op":"batch","requests":[{"op":"ne","n":2}]}|}).op with
  | Batch [ { op = Ne { n = 2 }; _ } ] -> ()
  | _ -> Alcotest.fail "batch member lost"

let payoff_of entries =
  Printf.sprintf {|{"op":"payoff","profile":[%s]}|} (String.concat "," entries)

let batch_of members =
  Printf.sprintf {|{"op":"batch","requests":[%s]}|}
    (String.concat ","
       (List.init members (fun _ -> {|{"op":"tau","n":5,"w":32}|})))

(* Every error [Request.of_line] can return, by its full text.  The lines
   with several wrong fields pin which error wins: the deadline, then the
   op, then the op's fields in order (n before w). *)
let parse_errors =
  [
    ({|not json at all|}, "malformed JSON: expected null at offset 0");
    ({||}, "malformed JSON: unexpected end of input at offset 0");
    ( {|{"op":"tau","n":5,"w":32|},
      "malformed JSON: expected ',' or '}' at offset 24" );
    ({|[1,2]|}, "missing field \"op\"");
    ({|{"n":5,"w":32}|}, "missing field \"op\"");
    ({|{"op":7,"n":5,"w":32}|}, "field \"op\" must be a string");
    ({|{"op":"frobnicate"}|}, "unknown op \"frobnicate\"");
    ({|{"op":"tau","n":5}|}, "missing field \"w\"");
    ({|{"op":"tau","w":32}|}, "missing field \"n\"");
    ({|{"op":"tau","n":"5","w":32}|}, "field \"n\" must be an integer");
    ({|{"op":"tau","n":5.0,"w":32}|}, "field \"n\" must be an integer");
    ({|{"op":"tau","n":0,"w":32}|}, "field \"n\" must be >= 1");
    ({|{"op":"tau","n":5,"w":-1}|}, "field \"w\" must be >= 1");
    ({|{"op":"tau","n":5,"w":true}|}, "field \"w\" must be an integer");
    ({|{"op":"welfare","n":5}|}, "missing field \"w\"");
    ({|{"op":"welfare","n":-3,"w":32}|}, "field \"n\" must be >= 1");
    ({|{"op":"ne"}|}, "missing field \"n\"");
    ({|{"op":"ne","n":0}|}, "field \"n\" must be >= 1");
    ({|{"op":"ne","n":null}|}, "field \"n\" must be an integer");
    ({|{"op":"payoff"}|}, "missing field \"profile\"");
    ( {|{"op":"payoff","profile":[]}|},
      "field \"profile\": profile must be a non-empty list" );
    ( {|{"op":"payoff","profile":{"cw":16}}|},
      "field \"profile\" must be a non-empty list" );
    ( {|{"op":"payoff","profile":[16,"x"]}|},
      "field \"profile\": strategy must be an integer CW or an object" );
    ( {|{"op":"payoff","profile":[16,0]}|},
      "field \"profile\": cw must be >= 1 (got 0)" );
    ( {|{"op":"payoff","profile":[16,{"cw":16,"aifs":-1}]}|},
      "field \"profile\": aifs must be >= 0 (got -1)" );
    ( {|{"op":"payoff","profile":[{"aifs":1}]}|},
      "field \"profile\": missing field \"cw\"" );
    ( {|{"op":"tau","n":5,"w":32,"deadline_ms":"soon"}|},
      "field \"deadline_ms\" must be a number >= 0" );
    ( {|{"op":"tau","n":5,"w":32,"deadline_ms":-1}|},
      "field \"deadline_ms\" must be a number >= 0" );
    ({|{"op":"batch"}|}, "missing field \"requests\"");
    ( {|{"op":"batch","requests":[]}|},
      "field \"requests\" must be a non-empty list" );
    ( {|{"op":"batch","requests":{"op":"tau"}}|},
      "field \"requests\" must be a non-empty list" );
    ( {|{"op":"batch","requests":[{"op":"batch","requests":[]}]}|},
      "batch requests may not nest" );
    ( {|{"op":"batch","requests":[{"op":"tau","n":5,"w":32},{"op":"tau"}]}|},
      "missing field \"n\"" );
    ( {|{"op":"batch","requests":[{"op":"tau","n":0},{"op":"nope"}]}|},
      "field \"n\" must be >= 1" );
    ( {|{"op":"batch","requests":[{"op":"ne","n":5,"deadline_ms":"x"}]}|},
      "field \"deadline_ms\" must be a number >= 0" );
    ( {|{"op":"nope","n":0,"w":0,"deadline_ms":-5}|},
      "field \"deadline_ms\" must be a number >= 0" );
    ( {|{"n":0,"w":0,"deadline_ms":-5}|},
      "field \"deadline_ms\" must be a number >= 0" );
    ( {|{"op":"batch","requests":[{"op":"tau"}],"deadline_ms":"late"}|},
      "field \"deadline_ms\" must be a number >= 0" );
    ({|{"op":"nope","n":0,"w":0}|}, "unknown op \"nope\"");
    ({|{"op":5,"n":0,"w":0}|}, "field \"op\" must be a string");
    ({|{"op":"tau","n":0,"w":0}|}, "field \"n\" must be >= 1");
    ({|{"op":"tau","n":"x","w":"y"}|}, "field \"n\" must be an integer");
    ({|{"op":"welfare","w":0}|}, "missing field \"n\"");
    ({|{"op":"tau","n":5,"w":0}|}, "field \"w\" must be >= 1");
    (* Of repeated keys the first counts. *)
    ({|{"op":"tau","n":0,"w":32,"n":5}|}, "field \"n\" must be >= 1");
    (* Size limits, checked before any oracle call.  Served, the first
       three raise an internal error or allocate without bound. *)
    ( {|{"op":"welfare","n":4611686018427387903,"w":32}|},
      "field \"n\" must be <= 10000" );
    ( {|{"op":"tau","n":5,"w":4611686018427387903}|},
      "field \"w\" must be <= 1048576" );
    ( {|{"op":"tau","n":1000000000,"w":1000000000}|},
      "field \"n\" must be <= 10000" );
    ({|{"op":"tau","n":10001,"w":32}|}, "field \"n\" must be <= 10000");
    ({|{"op":"ne","n":10001}|}, "field \"n\" must be <= 10000");
    ( {|{"op":"welfare","n":5,"w":1048577}|},
      "field \"w\" must be <= 1048576" );
    ( payoff_of (List.init 10_001 (fun _ -> "16")),
      "field \"profile\" must have at most 10000 entries" );
    ( payoff_of [ "16"; {|{"cw":1048577,"aifs":1}|} ],
      "field \"profile\": cw must be <= 1048576 (got 1048577)" );
    (batch_of 1_025, "field \"requests\" must have at most 1024 members");
  ]

(* Each size limit itself is accepted. *)
let at_limits =
  [
    {|{"op":"tau","n":10000,"w":1048576}|};
    {|{"op":"welfare","n":10000,"w":1048576}|};
    {|{"op":"ne","n":10000}|};
    payoff_of (List.init 10_000 (fun _ -> "1048576"));
    batch_of 1_024;
  ]

let test_parse_errors () =
  List.iter
    (fun (line, want) ->
      match Serve.Request.of_line line with
      | Error got -> Alcotest.(check string) line want got
      | Ok _ -> Alcotest.failf "parse of %S unexpectedly succeeded" line)
    parse_errors;
  List.iter
    (fun line ->
      match Serve.Request.of_line line with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "at-limit request refused: %s" e)
    at_limits;
  match Serve.Request.of_line {|{"op":"tau","n":5,"w":32,"op":"ne"}|} with
  | Ok { op = Tau { n = 5; w = 32 }; _ } -> ()
  | _ -> Alcotest.fail "the first of two \"op\" keys must count"

(* {1 Dispatch} *)

let test_tau_bitmatch () =
  let server, oracle, _ = fresh () in
  let view = Macgame.Oracle.uniform oracle ~n:5 ~w:64 in
  let reply = reply_of_line server {|{"op":"tau","n":5,"w":64}|} in
  Alcotest.(check bool) "ok reply" true (is_ok reply);
  let result = field "result" reply in
  check_bits "served tau" view.tau (float_field "tau" result);
  check_bits "served p" view.p (float_field "p" result);
  Alcotest.(check string) "memo tier (oracle already warm)" "memo"
    (string_field "tier" reply)

let test_welfare_bitmatch () =
  let server, oracle, _ = fresh () in
  let view = Macgame.Oracle.uniform oracle ~n:10 ~w:128 in
  let reply = reply_of_line server {|{"op":"welfare","n":10,"w":128}|} in
  let result = field "result" reply in
  check_bits "served utility" view.utility (float_field "utility" result);
  check_bits "served welfare" (10. *. view.utility)
    (float_field "welfare" result)

let test_payoff_bitmatch () =
  let server, oracle, _ = fresh () in
  let profile = [| 16; 32; 32; 64 |] in
  let direct = Macgame.Oracle.payoffs oracle profile in
  let reply = reply_of_line server {|{"op":"payoff","profile":[16,32,32,64]}|} in
  match field "payoffs" (field "result" reply) with
  | Jx.List served ->
      Alcotest.(check int) "one payoff per node" 4 (List.length served);
      List.iteri
        (fun i v ->
          match Jx.to_float_opt v with
          | Some u -> check_bits "served payoff" direct.(i) u
          | None -> Alcotest.fail "payoff not a number")
        served
  | _ -> Alcotest.fail "payoffs not a list"

let test_batch_envelope () =
  let server, _, count = fresh () in
  let reply =
    reply_of_line server
      ({|{"id":"b1","op":"batch","requests":[|}
      ^ {|{"id":1,"op":"tau","n":2,"w":32},|}
      ^ {|{"id":2,"op":"tau","n":2,"w":32},|}
      ^ {|{"id":3,"op":"tau","n":2,"w":32,"deadline_ms":0}]}|})
  in
  Alcotest.(check bool) "envelope ok" true (is_ok reply);
  Alcotest.(check bool) "envelope carries no tier" true
    (Jx.member "tier" reply = None);
  (match field "replies" (field "result" reply) with
  | Jx.List [ first; second; third ] ->
      Alcotest.(check bool) "ids in order" true
        (field "id" first = Jx.Int 1
        && field "id" second = Jx.Int 2
        && field "id" third = Jx.Int 3);
      Alcotest.(check string) "first member cold" "cold"
        (string_field "tier" first);
      Alcotest.(check string) "repeat member memo" "memo"
        (string_field "tier" second);
      Alcotest.(check bool) "expired member errors inside the batch" true
        (not (is_ok third))
  | _ -> Alcotest.fail "replies not a 3-list");
  (* The envelope and its three members each count as a request; only the
     invalid member errs. *)
  Alcotest.(check int) "requests counted" 4 (count "serve.requests");
  Alcotest.(check int) "one error" 1 (count "serve.errors")

let test_nonconverged_solve_is_error_reply () =
  (* A strangled solver budget (PR 9): the non-converged heterogeneous
     solve must come back as an error reply — never a fabricated answer —
     while uniform members of the same batch still answer. *)
  let registry = Telemetry.Registry.create ~label:"test-serve-nc" () in
  let oracle =
    Macgame.Oracle.create ~telemetry:registry ~solver_max_iter:1 params
  in
  let server = Serve.Server.create ~telemetry:registry oracle in
  let count name =
    Telemetry.Metric.count (Telemetry.Registry.counter registry name)
  in
  let reply =
    reply_of_line server {|{"id":7,"op":"payoff","profile":[32,64,128,256]}|}
  in
  Alcotest.(check bool) "refused" true (not (is_ok reply));
  Alcotest.(check bool) "reason names convergence" true
    (let e = error_text reply in
     let rec has i =
       i + 8 <= String.length e && (String.sub e i 8 = "converge" || has (i + 1))
     in
     has 0);
  Alcotest.(check int) "counted as serve error" 1 (count "serve.errors");
  Alcotest.(check int) "counted as oracle refusal" 1
    (count "oracle.solve.nonconverged");
  (* One bad member does not poison its batch siblings. *)
  let batch =
    reply_of_line server
      ({|{"id":"b","op":"batch","requests":[|}
      ^ {|{"id":1,"op":"tau","n":3,"w":64},|}
      ^ {|{"id":2,"op":"payoff","profile":[32,64,128,256]},|}
      ^ {|{"id":3,"op":"tau","n":3,"w":128}]}|})
  in
  match field "replies" (field "result" batch) with
  | Jx.List [ first; second; third ] ->
      Alcotest.(check bool) "uniform member ok" true (is_ok first);
      Alcotest.(check bool) "hostile member refused" true (not (is_ok second));
      Alcotest.(check bool) "later member unaffected" true (is_ok third)
  | _ -> Alcotest.fail "replies not a 3-list"

let test_deadline_expired () =
  let server, _, count = fresh () in
  let reply = reply_of_line server {|{"op":"tau","n":5,"w":64,"deadline_ms":0}|} in
  Alcotest.(check bool) "deadline reply is an error" true (not (is_ok reply));
  Alcotest.(check string) "reason" "deadline exceeded" (error_text reply);
  Alcotest.(check int) "counted as error" 1 (count "serve.errors");
  Alcotest.(check int) "no tier consumed" 0
    (count "serve.tier.memo" + count "serve.tier.store"
   + count "serve.tier.cold")

let test_malformed_inputs_never_raise () =
  let server, _, _ = fresh () in
  let lines =
    [
      "garbage";
      "{";
      {|{"op":"tau"}|};
      {|{"op":"ne","n":"five"}|};
      {|{"op":"payoff","profile":"wide"}|};
      {|[1,2,3]|};
    ]
  in
  List.iter
    (fun line ->
      let reply = reply_of_line server line in
      Alcotest.(check bool)
        (Printf.sprintf "error reply for %S" line)
        true
        (not (is_ok reply) && error_text reply <> ""))
    lines;
  Alcotest.(check bool) "blank line yields no reply" true
    (Serve.Server.handle_line server "   " = None)

let test_non_json_number_is_error_reply () =
  let server, _, count = fresh () in
  let reply = reply_of_line server {|{"op":"tau","n":+2,"w":16}|} in
  Alcotest.(check bool) "refused" true (not (is_ok reply));
  Alcotest.(check bool) "as malformed JSON" true
    (String.starts_with ~prefix:"malformed JSON" (error_text reply));
  Alcotest.(check int) "counted as error" 1 (count "serve.errors")

(* {1 Fuzzing the request boundary}

   Mutations (byte flips, inserts, deletes, truncation) of the lines the
   service and its store actually see: the serving benchmark's request
   mix, store entry lines and telemetry event lines.  Only the typed
   errors may escape, every non-blank line gets a reply, and whatever the
   parser accepts renders back to the same value. *)

let seed_lines =
  let requests =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun w ->
            [
              Printf.sprintf {|{"op":"tau","n":%d,"w":%d}|} n w;
              Printf.sprintf {|{"op":"welfare","n":%d,"w":%d}|} n w;
            ])
          [ 16; 32; 64; 128; 256 ])
      [ 2; 5; 10; 20 ]
    @ [
        {|{"op":"payoff","profile":[16,32,32,64]}|};
        {|{"op":"payoff","profile":[32,32,32,64,128]}|};
        {|{"id":"b","op":"batch","requests":[{"id":1,"op":"tau","n":3,"w":64},{"op":"payoff","profile":[16,{"cw":32,"aifs":2,"txop":3}]}],"deadline_ms":250.5}|};
        {|{"op":"payoff","profile":[{"cw":48,"aifs":1,"txop":2},64,64],"deadline_ms":1000}|};
        {|{"op":"batch","requests":[{"op":"welfare","n":4,"w":32,"deadline_ms":1000},{"op":"payoff","profile":[16,48]}],"deadline_ms":1000}|};
      ]
  in
  let store_lines =
    [
      Store.Codec.encode ~key:"default|payoff|16,32,32,64"
        (Jx.List [ Jx.Float (1. /. 3.); Jx.Float 1e-5; Jx.Float (-0.15625) ]);
      Store.Codec.encode ~key:"default|ne|n=5"
        (Jx.Obj
           [
             ("w_lo", Jx.Int 40); ("w_hi", Jx.Int 90); ("w_star", Jx.Int 64);
             ("welfare", Jx.Float 2.718281828459045);
           ]);
    ]
  in
  let event_lines =
    List.map Telemetry.Event.to_line
      [
        Telemetry.Event.make ~at:1760000000.123456 ~name:"span"
          [
            ("name", Jx.String "serve.request");
            ("seconds", Jx.Float 2.1e-6);
            ("depth", Jx.Int 0);
          ];
        Telemetry.Event.make ~at:1760000000.5 ~name:"run_summary"
          [
            ("label", Jx.String "quote \" tab \t nul \000 \xc3\xa9 \xf0\x9f\x98\x80");
            ("shares", Jx.List [ Jx.Float 0.25; Jx.Null; Jx.Bool true ]);
            ("nested", Jx.Obj [ ("empty", Jx.List []); ("o", Jx.Obj []) ]);
          ];
      ]
  in
  Array.of_list (requests @ store_lines @ event_lines)

(* Bytes a mutation inserts or writes: the grammar's own punctuation,
   digits and escape letters, control bytes and high bytes. *)
let interesting = "{}[]:,\"\\/u0123456789+-.eEntfrbx \t\n\r\000\001\031\127\200\237\255"

(* {2 Extreme integers}

   Every integer literal of a line, outside its strings, may be replaced
   by one of these: the ends of OCaml's int range, 2^53, 10^9, 0 and -1.
   Large n, w and profile lengths must meet the parser's limits before
   anything is allocated or solved. *)
let extremes =
  [ string_of_int max_int; string_of_int min_int; "9007199254740992";
    "1000000000"; "0"; "-1" ]

let integer_spans line =
  let n = String.length line in
  let rec string_end i =
    if i >= n then n
    else
      match line.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  let rec number_end i =
    if i < n && String.contains "0123456789.eE+-" line.[i] then
      number_end (i + 1)
    else i
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match line.[i] with
      | '"' -> go (string_end (i + 1)) acc
      | '-' | '0' .. '9' ->
          let j = number_end (i + 1) in
          let integral =
            not (String.exists (fun c -> String.contains ".eE" c)
                   (String.sub line i (j - i)))
          in
          go j (if integral then (i, j) :: acc else acc)
      | _ -> go (i + 1) acc
  in
  go 0 []

let with_integer line (i, j) value =
  String.sub line 0 i ^ value ^ String.sub line j (String.length line - j)

let mutate st line =
  let int n = Random.State.int st n in
  let byte () =
    if Random.State.bool st then interesting.[int (String.length interesting)]
    else Char.chr (int 256)
  in
  let once s =
    let n = String.length s in
    let at = int (n + 1) in
    match int 6 with
    | 0 when n > 0 ->
        let b = Bytes.of_string s in
        let i = int n in
        Bytes.set b i (byte ());
        Bytes.to_string b
    | 1 when n > 0 ->
        let b = Bytes.of_string s in
        let i = int n in
        Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl int 8)));
        Bytes.to_string b
    | 2 -> String.sub s 0 at ^ String.make 1 (byte ()) ^ String.sub s at (n - at)
    | 3 when at < n -> String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
    | 4 -> (
        match integer_spans s with
        | [] -> s
        | spans ->
            with_integer s
              (List.nth spans (int (List.length spans)))
              (List.nth extremes (int (List.length extremes))))
    | _ -> String.sub s 0 at
  in
  let rec go s k = if k = 0 then s else go (once s) (k - 1) in
  go line (1 + int 4)

let gen_mutant st = mutate st seed_lines.(Random.State.int st (Array.length seed_lines))

let fuzz_server = lazy (let server, _, _ = fresh () in server)

(* A reply the service may give: ok, or an error naming what was refused,
   never an escaped exception; batch members alike. *)
let exception_names =
  [ "Invalid_argument"; "Failure"; "Not_found"; "Division_by_zero";
    "Out_of_memory"; "Stack_overflow"; "Sys_error"; "End_of_file";
    "Match_failure"; "Assert_failure"; "Exit"; "Non_converged"; "Corrupt";
    "Parse_error"; "Unix_error" ]

let contains text word =
  let n = String.length text and k = String.length word in
  let rec at i = i + k <= n && (String.sub text i k = word || at (i + 1)) in
  at 0

let rec typed_reply json =
  (match (Jx.member "ok" json, Jx.member "error" json) with
  | Some (Jx.Bool true), _ -> true
  | Some (Jx.Bool false), Some (Jx.String e) ->
      not (List.exists (contains e) ("internal error" :: exception_names))
  | _ -> false)
  &&
  match Option.bind (Jx.member "result" json) (Jx.member "replies") with
  | Some (Jx.List members) -> List.for_all typed_reply members
  | _ -> true

let test_fuzz_request_boundary =
  QCheck.Test.make ~count:3000 ~name:"mutated lines: typed errors only"
    (QCheck.make ~print:String.escaped gen_mutant)
    (fun line ->
      (match Jx.parse line with
      | v ->
          (* Rendering is a fixed point.  [v] itself need not come back:
             1760000000.1234e6 is a [Float] that renders without a point,
             so it parses back as an [Int] with the same bytes. *)
          let rendered = Jx.to_string v in
          let again =
            try Jx.to_string (Jx.parse rendered)
            with Jx.Parse_error msg ->
              QCheck.Test.fail_reportf "render %s of an accepted value: %s"
                rendered msg
          in
          if again <> rendered then
            QCheck.Test.fail_reportf "%s re-rendered as %s" rendered again
      | exception Jx.Parse_error _ -> ());
      (match Serve.Request.of_line line with Ok _ | Error _ -> ());
      ignore (Store.Codec.decode line);
      match Serve.Server.handle_line (Lazy.force fuzz_server) line with
      | Some reply -> typed_reply (Jx.parse reply)
      | None -> String.trim line = "")

(* Each extreme in each integer field of the request mix (n, w, profile
   windows, strategy cw/aifs/txop, deadline_ms, batch members, ids). *)
let test_extreme_integers () =
  let server, _, _ = fresh () in
  let requests =
    Array.to_list seed_lines
    |> List.filter (fun l -> contains l {|"op":|})
  in
  let cases = ref 0 in
  List.iter
    (fun line ->
      List.iter
        (fun span ->
          List.iter
            (fun value ->
              let line = with_integer line span value in
              incr cases;
              match Serve.Server.handle_line server line with
              | Some reply when typed_reply (Jx.parse reply) -> ()
              | Some reply -> Alcotest.failf "%s -> %s" line reply
              | None -> Alcotest.failf "no reply for %s" line)
            extremes)
        (integer_spans line))
    requests;
  Alcotest.(check bool) "every integer field tried" true (!cases > 500)

let test_salvaged_id () =
  let server, _, _ = fresh () in
  let reply = reply_of_line server {|{"id":"req-9","op":"frobnicate"}|} in
  Alcotest.(check bool) "id survives a bad op" true
    (field "id" reply = Jx.String "req-9")

let test_tier_accounting () =
  let server, _, count = fresh () in
  let ask line = ignore (reply_of_line server line) in
  ask {|{"op":"tau","n":5,"w":64}|};
  ask {|{"op":"tau","n":5,"w":64}|};
  ask {|{"op":"welfare","n":5,"w":64}|};
  Alcotest.(check int) "one cold solve" 1 (count "serve.tier.cold");
  Alcotest.(check int) "two memo answers" 2 (count "serve.tier.memo");
  Alcotest.(check int) "three requests" 3 (count "serve.requests");
  Alcotest.(check int) "no errors" 0 (count "serve.errors")

(* {1 NE rows persist across server restarts} *)

let test_ne_store_roundtrip () =
  let dir = temp_dir () in
  let first =
    Store.with_store dir (fun store ->
        let server, _, _ = fresh ~store () in
        let cold = reply_of_line server {|{"op":"ne","n":2}|} in
        Alcotest.(check string) "first answer is cold" "cold"
          (string_field "tier" cold);
        let memo = reply_of_line server {|{"op":"ne","n":2}|} in
        Alcotest.(check string) "repeat is memo" "memo"
          (string_field "tier" memo);
        field "result" cold)
  in
  Store.with_store dir (fun store ->
      let server, _, _ = fresh ~store () in
      let reply = reply_of_line server {|{"op":"ne","n":2}|} in
      Alcotest.(check string) "restart answers from the store" "store"
        (string_field "tier" reply);
      let again = field "result" reply in
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " identical") true
            (field name again = field name first))
        [ "w_lo"; "w_hi"; "w_star" ];
      check_bits "welfare identical"
        (float_field "welfare" first)
        (float_field "welfare" again))

(* {1 Socket transport} *)

let test_socket_roundtrip () =
  let server, oracle, _ = fresh () in
  let view = Macgame.Oracle.uniform oracle ~n:5 ~w:64 in
  let path = Filename.temp_file "test_serve_sock" "" in
  Sys.remove path;
  let bound_when_ready = ref false in
  let listener =
    Thread.create
      (fun () ->
        Serve.Server.serve_socket server ~path ~max_inflight:2
          ~max_connections:1
          ~ready:(fun () -> bound_when_ready := Sys.file_exists path)
          ())
      ()
  in
  (* Wait for the socket file, then connect. *)
  let rec wait tries =
    if Sys.file_exists path then ()
    else if tries = 0 then Alcotest.fail "socket never appeared"
    else begin
      Thread.delay 0.01;
      wait (tries - 1)
    end
  in
  wait 500;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc "{\"id\":1,\"op\":\"tau\",\"n\":5,\"w\":64}\n";
  output_string oc "not json\n";
  flush oc;
  let first = Jx.parse (input_line ic) in
  let second = Jx.parse (input_line ic) in
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Thread.join listener;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Alcotest.(check bool) "ok over the socket" true (is_ok first);
  check_bits "tau over the socket" view.tau
    (float_field "tau" (field "result" first));
  Alcotest.(check bool) "error reply over the socket" true
    (not (is_ok second));
  Alcotest.(check bool) "ready runs once the socket is bound" true
    !bound_when_ready;
  Alcotest.(check bool) "socket file removed on exit" true
    (not (Sys.file_exists path))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "serve"
    [
      ( "request",
        [
          quick "well-formed requests parse" test_parse_ok;
          quick "malformed requests return Error" test_parse_errors;
        ] );
      ( "dispatch",
        [
          quick "tau bit-matches the oracle" test_tau_bitmatch;
          quick "welfare bit-matches the oracle" test_welfare_bitmatch;
          quick "payoff bit-matches the oracle" test_payoff_bitmatch;
          quick "batch envelope and member tiers" test_batch_envelope;
          quick "non-converged solve is an error reply"
            test_nonconverged_solve_is_error_reply;
          quick "expired deadline is refused" test_deadline_expired;
          quick "malformed inputs never raise" test_malformed_inputs_never_raise;
          quick "id salvaged from a bad envelope" test_salvaged_id;
          quick "non-JSON number is an error reply"
            test_non_json_number_is_error_reply;
          quick "tier counters account every leaf" test_tier_accounting;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest test_fuzz_request_boundary;
          Alcotest.test_case "extreme integers: typed errors only" `Quick
            test_extreme_integers;
        ] );
      ( "persistence",
        [ quick "NE rows survive a server restart" test_ne_store_roundtrip ] );
      ("socket", [ quick "socket round-trip" test_socket_roundtrip ]);
    ]
