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

(* {2 The tree decoder, kept as a reference}

   What [Request.of_line] did before it read lines in one pass: parse the
   whole line into a tree, then take the envelope apart with
   [Jx.member].  The one-pass decoder must agree with it on every line:
   the same request, or the same refusal text. *)

module Reference = struct
  open Serve.Request

  let id_of json =
    match Jx.member "id" json with Some v -> v | None -> Jx.Null

  let int_field name json =
    match Jx.member name json with
    | Some (Jx.Int v) -> Ok v
    | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
    | None -> Error (Printf.sprintf "missing field %S" name)

  let bounded_field name ~limit json =
    Result.bind (int_field name json) (fun v ->
        if v < 1 then Error (Printf.sprintf "field %S must be >= 1" name)
        else if v > limit then
          Error (Printf.sprintf "field %S must be <= %d" name limit)
        else Ok v)

  let profile_field json =
    match Jx.member "profile" json with
    | Some (Jx.List items) when List.length items > max_profile ->
        Error
          (Printf.sprintf "field \"profile\" must have at most %d entries"
             max_profile)
    | Some (Jx.List _ as items) -> (
        match Macgame.Profile.of_json items with
        | Ok profile -> (
            match
              Array.find_opt
                (fun (s : Dcf.Strategy_space.t) -> s.cw > max_window)
                profile
            with
            | Some s ->
                Error
                  (Printf.sprintf
                     "field \"profile\": cw must be <= %d (got %d)" max_window
                     s.cw)
            | None -> Ok profile)
        | Error reason -> Error (Printf.sprintf "field \"profile\": %s" reason))
    | Some _ -> Error "field \"profile\" must be a non-empty list"
    | None -> Error "missing field \"profile\""

  let deadline_field json =
    match Jx.member "deadline_ms" json with
    | None -> Ok None
    | Some v -> (
        match Jx.to_float_opt v with
        | Some d when d >= 0. -> Ok (Some d)
        | _ -> Error "field \"deadline_ms\" must be a number >= 0")

  let rec of_json ~depth json =
    let ( let* ) = Result.bind in
    let* deadline_ms = deadline_field json in
    let leaf op = Ok { id = id_of json; op; deadline_ms } in
    match Jx.member "op" json with
    | Some (Jx.String "ne") ->
        let* n = bounded_field "n" ~limit:max_n json in
        leaf (Ne { n })
    | Some (Jx.String "payoff") ->
        let* profile = profile_field json in
        leaf (Payoff { profile })
    | Some (Jx.String "welfare") ->
        let* n = bounded_field "n" ~limit:max_n json in
        let* w = bounded_field "w" ~limit:max_window json in
        leaf (Welfare { n; w })
    | Some (Jx.String "tau") ->
        let* n = bounded_field "n" ~limit:max_n json in
        let* w = bounded_field "w" ~limit:max_window json in
        leaf (Tau { n; w })
    | Some (Jx.String "batch") ->
        if depth > 0 then Error "batch requests may not nest"
        else
          let* members =
            match Jx.member "requests" json with
            | Some (Jx.List items) when List.length items > max_batch ->
                Error
                  (Printf.sprintf
                     "field \"requests\" must have at most %d members"
                     max_batch)
            | Some (Jx.List items) when items <> [] ->
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
    | Some (Jx.String other) -> Error (Printf.sprintf "unknown op %S" other)
    | Some _ -> Error "field \"op\" must be a string"
    | None -> Error "missing field \"op\""

  let of_line line =
    match Jx.parse line with
    | exception Jx.Parse_error msg ->
        Error (Printf.sprintf "malformed JSON: %s" msg)
    | json -> of_json ~depth:0 json
end

(* {2 Random request lines}

   Envelopes written by hand, so that the generator controls what a
   renderer would normalise away: field order, repeated keys, keys and
   names spelled with escapes, whitespace between tokens.  Values are
   drawn near the protocol's edges, and a line is sometimes mutated
   into malformed JSON. *)

let pick st a = a.(Random.State.int st (Array.length a))

(* A string literal of [s], some of its bytes written as \u escapes. *)
let quoted st s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b {|\"|}
      | '\\' -> Buffer.add_string b {|\\|}
      | c when c < ' ' || Random.State.int st 8 = 0 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let ws st = pick st [| ""; ""; ""; " "; "\t"; "\r\n "; "  " |]

let obj st fields =
  "{" ^ ws st
  ^ String.concat ("," ^ ws st)
      (List.map (fun (k, v) -> quoted st k ^ ws st ^ ":" ^ ws st ^ v) fields)
  ^ ws st ^ "}"

let list st items = "[" ^ ws st ^ String.concat ("," ^ ws st) items ^ ws st ^ "]"

let int_text st =
  pick st
    [| "1"; "2"; "5"; "16"; "64"; "1024"; "0"; "-1"; "-0"; "10000"; "10001";
       "1048576"; "1048577"; string_of_int max_int; string_of_int min_int;
       "9223372036854775808"; "5.0"; "1e2"; "2.5"; "\"5\""; "null"; "true";
       "[]"; "{}" |]

let rec json st depth =
  match Random.State.int st (if depth > 2 then 6 else 8) with
  | 0 -> "null"
  | 1 -> pick st [| "true"; "false" |]
  | 2 -> int_text st
  | 3 -> pick st [| "0.5"; "-0.0"; "1e300"; "2.5e-8"; "-17.25" |]
  | 4 -> quoted st (pick st [| ""; "req-9"; "tau"; "q\"b\\s"; "é😀"; "a\001b" |])
  | 5 -> quoted st (pick st [| "ne"; "payoff"; "welfare"; "batch"; "x" |])
  | 6 -> list st (List.init (Random.State.int st 3) (fun _ -> json st (depth + 1)))
  | _ ->
      obj st
        (List.init (Random.State.int st 3) (fun _ ->
             (pick st [| "a"; "id"; "op"; "n" |], json st (depth + 1))))

let strategy st =
  match Random.State.int st 5 with
  | 0 | 1 | 2 -> int_text st
  | _ ->
      let knobs =
        [ ("cw", int_text st); ("aifs", pick st [| "0"; "1"; "2"; "-1"; "1.5" |]);
          ("txop", pick st [| "1"; "2"; "0" |]);
          ("rate", pick st [| "1"; "0.5"; "2"; "0"; "\"x\"" |]) ]
      in
      obj st (List.filter (fun _ -> Random.State.int st 3 > 0) knobs)

let op_text st =
  match Random.State.int st 10 with
  | 0 -> json st 1
  | 1 -> quoted st "nope"
  | _ -> quoted st (pick st [| "tau"; "welfare"; "payoff"; "ne"; "batch" |])

let rec envelope st ~depth =
  let field () =
    match Random.State.int st 12 with
    | 0 -> ("id", json st 1)
    | 1 | 2 -> ("op", op_text st)
    | 3 | 4 -> ("n", int_text st)
    | 5 | 6 -> ("w", int_text st)
    | 7 ->
        ( "profile",
          if Random.State.int st 8 = 0 then json st 1
          else list st (List.init (Random.State.int st 5) (fun _ -> strategy st)) )
    | 8 ->
        ( "deadline_ms",
          pick st [| "0"; "1e9"; "250.5"; "-1"; "\"soon\""; "null"; "1000" |] )
    | 9 when depth < 2 ->
        ( "requests",
          if Random.State.int st 8 = 0 then json st 1
          else
            list st
              (List.init (Random.State.int st 4) (fun _ ->
                   envelope st ~depth:(depth + 1))) )
    | _ -> (pick st [| "extra"; "zz"; "ID"; "o" |], json st 1)
  in
  let fields = List.init (Random.State.int st 7) (fun _ -> field ()) in
  (* Usually a well-formed leaf or batch underneath the noise. *)
  let core =
    match Random.State.int st 4 with
    | 0 -> [ ("op", {|"tau"|}); ("n", "5"); ("w", "64") ]
    | 1 -> [ ("op", {|"payoff"|}); ("profile", list st [ strategy st; strategy st ]) ]
    | 2 when depth = 0 ->
        [ ("op", {|"batch"|});
          ("requests", list st [ envelope st ~depth:1; envelope st ~depth:1 ]) ]
    | _ -> []
  in
  let all = fields @ core in
  let shuffled =
    List.map snd
      (List.sort compare (List.map (fun f -> (Random.State.bits st, f)) all))
  in
  obj st shuffled

let gen_request_line st =
  let line = envelope st ~depth:0 in
  if Random.State.int st 6 = 0 then mutate st line else line

let same_decoding line =
  let got = Serve.Request.of_line line and want = Reference.of_line line in
  got = want
  ||
  let show = function
    | Ok (r : Serve.Request.t) ->
        Printf.sprintf "Ok (id %s)" (Jx.to_string r.id)
    | Error e -> "Error " ^ e
  in
  QCheck.Test.fail_reportf "one pass: %s\ntree: %s" (show got) (show want)

let test_decoder_matches_reference =
  QCheck.Test.make ~count:5000 ~name:"one-pass decoder = tree decoder"
    (QCheck.make ~print:String.escaped gen_request_line)
    same_decoding

(* The fixed lines too: the parse-error table and the fuzzer's seeds. *)
let test_reference_on_fixed_lines () =
  List.iter
    (fun line -> ignore (same_decoding line))
    (List.map fst parse_errors @ at_limits @ Array.to_list seed_lines)

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

(* {1 Concurrent socket clients}

   Several clients on one socket send interleaved tau, payoff, batch and
   deadline lines at once.  With elapsed_ms and tier masked, every reply
   must be the one a serial [handle_line] gives the same line, and
   whatever the service put must be in the store after a reopen: a
   reader or writer that shared state between the transport's threads
   would garble replies here. *)

let mask reply =
  let b = Buffer.create (String.length reply) in
  let n = String.length reply in
  let rec go i =
    if i < n then
      let at key =
        i + String.length key <= n && String.sub reply i (String.length key) = key
      in
      if at {|"elapsed_ms":|} then begin
        Buffer.add_string b {|"elapsed_ms":_|};
        let rec skip j =
          if j < n && String.contains "-+.eE0123456789" reply.[j] then skip (j + 1)
          else j
        in
        go (skip (i + 13))
      end
      else if at {|"tier":"|} then begin
        Buffer.add_string b {|"tier":_|};
        go (String.index_from reply (i + 8) '"' + 1)
      end
      else begin
        Buffer.add_char b reply.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* Profiles a batch names are answered before the clients start: a batch
   warm-starts its cold members (to within 1e-9, not bit for bit), so a
   cold batch member would make the answer depend on arrival order. *)
let batch_profiles = [ "[16,32,32,64]"; "[40,40,300,700]"; "[41,41,300,700]" ]

let client_lines k =
  let windows = [| 16; 32; 64; 128 |] in
  List.concat
    (List.init 30 (fun i ->
         let n = 2 + ((i + k) mod 4) and w = windows.((i * 3 + k) mod 4) in
         let p = List.nth batch_profiles ((i + k) mod 3) in
         [
           Printf.sprintf {|{"id":[%d,%d],"op":"tau","n":%d,"w":%d}|} k i n w;
           Printf.sprintf {|{"op":"welfare","w":%d,"n":%d,"id":"c%d"}|} w n k;
           Printf.sprintf {|{"op":"payoff","profile":[%d,%d,%d]}|} (16 + i)
             (32 + k) 64;
           Printf.sprintf
             {|{"id":%d,"op":"batch","requests":[{"op":"tau","n":%d,"w":%d},{"op":"payoff","profile":%s},{"op":"tau","n":3,"w":32,"deadline_ms":0}]}|}
             i n w p;
           Printf.sprintf {|{"op":"tau","n":%d,"w":%d,"deadline_ms":%s}|} n w
             (if i mod 2 = 0 then "0" else "1e9");
           (if i mod 10 = 0 then Printf.sprintf {|{"op":"ne","n":%d}|} (2 + (i mod 3))
            else {|{"op":"tau","n":0}|});
           "not json";
         ]))

let test_concurrent_clients () =
  let dir = temp_dir () in
  let warm =
    List.map (fun p -> Printf.sprintf {|{"op":"payoff","profile":%s}|} p)
      batch_profiles
  in
  let clients = 4 in
  let lines = Array.init clients client_lines in
  (* The serial reference: one fresh service, the warm-up, then every
     line in turn. *)
  let reference, _, _ = fresh () in
  List.iter (fun l -> ignore (Serve.Server.handle_line reference l)) warm;
  let serial l = mask (Option.get (Serve.Server.handle_line reference l)) in
  let expected = Array.map (List.map serial) lines in
  let path = Filename.concat dir "sock" in
  let served =
    Store.with_store (Filename.concat dir "store") (fun store ->
        let server, _, _ = fresh ~store () in
        List.iter (fun l -> ignore (Serve.Server.handle_line server l)) warm;
        let listener =
          Thread.create
            (fun () ->
              Serve.Server.serve_socket server ~path ~max_inflight:4
                ~max_connections:clients ())
            ()
        in
        let rec wait tries =
          if not (Sys.file_exists path) then
            if tries = 0 then Alcotest.fail "socket never appeared"
            else begin
              Thread.delay 0.01;
              wait (tries - 1)
            end
        in
        wait 500;
        let replies = Array.make clients [] in
        let client k () =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          let ic = Unix.in_channel_of_descr fd
          and oc = Unix.out_channel_of_descr fd in
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            lines.(k);
          flush oc;
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          replies.(k) <- List.map (fun _ -> input_line ic) lines.(k);
          Unix.close fd
        in
        let threads = List.init clients (fun k -> Thread.create (client k) ()) in
        List.iter Thread.join threads;
        Thread.join listener;
        (* Threads of one domain switch only at blocking calls and ticks,
           so the same lines also go through [handle_line] from two
           domains at once, where shared state would race for real: both
           start together and each sends its clients' lines 30 times. *)
        let ready = Atomic.make 0 in
        let domain ks () =
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Domain.cpu_relax ()
          done;
          List.concat_map
            (fun k ->
              List.init 30 (fun _ ->
                  ( k,
                    List.map
                      (fun l -> Option.get (Serve.Server.handle_line server l))
                      lines.(k) )))
            ks
        in
        let parallel =
          List.map Domain.join
            [ Domain.spawn (domain [ 0; 2 ]); Domain.spawn (domain [ 1; 3 ]) ]
        in
        List.iter
          (List.iter (fun (k, got) ->
               List.iter2
                 (fun (line, want) got ->
                   Alcotest.(check string)
                     (Printf.sprintf "domain, client %d: %s" k line) want
                     (mask got))
                 (List.combine lines.(k) expected.(k))
                 got))
          parallel;
        replies)
  in
  Array.iteri
    (fun k want ->
      List.iter2
        (fun (line, want) got ->
          Alcotest.(check string) (Printf.sprintf "client %d: %s" k line) want
            (mask got))
        (List.combine lines.(k) want)
        served.(k))
    expected;
  (* Reopened, the store answers every leaf the clients asked about: a
     fresh service over it solves nothing cold. *)
  Store.with_store (Filename.concat dir "store") (fun store ->
      let server, _, count = fresh ~store () in
      Array.iter
        (List.iter (fun l ->
             match Serve.Server.handle_line server l with
             | Some reply ->
                 Alcotest.(check string) ("reopened: " ^ l) (serial l) (mask reply)
             | None -> Alcotest.fail "no reply"))
        lines;
      Alcotest.(check int) "nothing solved cold after the reopen" 0
        (count "serve.tier.cold");
      Alcotest.(check bool) "leaves came from the store" true
        (count "serve.tier.store" > 0))

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
          QCheck_alcotest.to_alcotest test_decoder_matches_reference;
          quick "one-pass decoder = tree decoder on fixed lines"
            test_reference_on_fixed_lines;
          Alcotest.test_case "extreme integers: typed errors only" `Quick
            test_extreme_integers;
        ] );
      ( "persistence",
        [ quick "NE rows survive a server restart" test_ne_store_roundtrip ] );
      ( "socket",
        [
          quick "socket round-trip" test_socket_roundtrip;
          quick "concurrent clients get serial replies" test_concurrent_clients;
        ] );
    ]
