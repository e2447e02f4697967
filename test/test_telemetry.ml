(* Tests for the telemetry subsystem: metric semantics, JSONL sink
   round-trips, registry isolation, and the instrumentation contracts of
   the solver/simulator/game layers.  Spans are flight-recorder spans,
   tested in test_trace. *)

module T = Telemetry

let registry ?clock () =
  match clock with
  | Some clock -> T.Registry.create ~label:"test" ~clock ()
  | None -> T.Registry.create ~label:"test" ()

(* A fake clock advancing by [step] seconds per reading. *)
let fake_clock ?(start = 0.) ?(step = 1.) () =
  let now = ref (start -. step) in
  fun () ->
    now := !now +. step;
    !now

(* {1 Metrics} *)

let test_counter () =
  let r = registry () in
  let c = T.Registry.counter r "hits" in
  Alcotest.(check int) "starts at zero" 0 (T.Metric.count c);
  T.Metric.incr c;
  T.Metric.add c 4;
  Alcotest.(check int) "accumulates" 5 (T.Metric.count c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metric.add: counters only go up") (fun () ->
      T.Metric.add c (-1));
  let c' = T.Registry.counter r "hits" in
  T.Metric.incr c';
  Alcotest.(check int) "same name, same cell" 6 (T.Metric.count c)

let test_gauge () =
  let r = registry () in
  let g = T.Registry.gauge r "depth" in
  T.Metric.set g 3.5;
  Alcotest.(check (float 0.)) "holds last value" 3.5 (T.Metric.value g);
  T.Metric.set g 1.;
  Alcotest.(check (float 0.)) "overwrites" 1. (T.Metric.value g)

let test_histogram () =
  let r = registry () in
  let h = T.Registry.histogram r "latency" in
  List.iter (T.Metric.observe h) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (T.Metric.observations h);
  Alcotest.(check (float 1e-12)) "mean" 2.5 (T.Metric.mean h);
  Alcotest.(check (float 1e-12)) "min" 1. (T.Metric.hmin h);
  Alcotest.(check (float 1e-12)) "max" 4. (T.Metric.hmax h);
  Alcotest.(check (float 1e-12)) "total" 10. (T.Metric.total h);
  (* Welford matches the textbook sample stddev. *)
  Alcotest.(check (float 1e-12)) "stddev"
    (sqrt (5. /. 3.))
    (T.Metric.stddev h)

(* {1 Events and sinks} *)

let test_emit_is_lazy_without_sinks () =
  let r = registry () in
  let called = ref false in
  T.Registry.emit r "noop" (fun () ->
      called := true;
      []);
  Alcotest.(check bool) "thunk not forced" false !called;
  Alcotest.(check bool) "inactive" false (T.Registry.active r)

let test_memory_sink_order () =
  let r = registry ~clock:(fake_clock ()) () in
  let sink, events = T.Sink.memory () in
  T.Registry.add_sink r sink;
  T.Registry.emit r "a" (fun () -> [ ("k", T.Jsonx.Int 1) ]);
  T.Registry.emit r "b" (fun () -> []);
  (match events () with
  | [ a; b ] ->
      Alcotest.(check string) "order" "a" a.T.Event.name;
      Alcotest.(check string) "order" "b" b.T.Event.name;
      Alcotest.(check bool) "timestamps increase" true
        (b.T.Event.at > a.T.Event.at)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  T.Registry.remove_sink r sink;
  T.Registry.emit r "c" (fun () -> []);
  Alcotest.(check int) "removed sink sees nothing" 2 (List.length (events ()))

let test_jsonl_sink_round_trip () =
  let r = registry () in
  let path = Filename.temp_file "telemetry_test" ".jsonl" in
  let sink = T.Sink.jsonl path in
  T.Registry.add_sink r sink;
  T.Registry.emit r "alpha" (fun () ->
      [
        ("i", T.Jsonx.Int 42);
        ("f", T.Jsonx.Float 0.1);
        ("s", T.Jsonx.String "quote \" and \\ newline \n done");
        ("l", T.Jsonx.List [ T.Jsonx.Float 1e-3; T.Jsonx.Null ]);
        ("inf", T.Jsonx.Float infinity);
      ]);
  T.Registry.emit r "beta" (fun () -> [ ("ok", T.Jsonx.Bool true) ]);
  T.Registry.remove_sink r sink;
  T.Sink.close sink;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  let events =
    List.map
      (fun line ->
        match T.Event.of_json (T.Jsonx.parse line) with
        | Some e -> e
        | None -> Alcotest.failf "line is not an event: %s" line)
      lines
  in
  (match events with
  | [ alpha; beta ] ->
      Alcotest.(check string) "name survives" "alpha" alpha.T.Event.name;
      Alcotest.(check string) "name survives" "beta" beta.T.Event.name;
      (match T.Event.field "s" alpha with
      | Some (T.Jsonx.String s) ->
          Alcotest.(check string) "escaped string survives"
            "quote \" and \\ newline \n done" s
      | _ -> Alcotest.fail "string field lost");
      (match T.Event.field "f" alpha with
      | Some (T.Jsonx.Float f) ->
          Alcotest.(check (float 0.)) "float round-trips exactly" 0.1 f
      | _ -> Alcotest.fail "float field lost");
      (* Non-finite floats are rendered as null: still valid JSON. *)
      Alcotest.(check bool) "infinity becomes null" true
        (T.Event.field "inf" alpha = Some T.Jsonx.Null)
  | _ -> Alcotest.fail "expected two events")

(* The golden snapshots and the result cache both lean on parse ∘ render
   being the identity; these pin the edges of that contract. *)
let test_jsonx_round_trip_edges () =
  let rt v = T.Jsonx.parse (T.Jsonx.to_string v) in
  (* Control characters, quotes and backslashes in strings. *)
  let hairy = "tab\t nl\n cr\r quote\" back\\slash bell\007 esc\027 nul\000" in
  (match rt (T.Jsonx.String hairy) with
  | T.Jsonx.String s -> Alcotest.(check string) "escapes survive" hairy s
  | _ -> Alcotest.fail "string did not round-trip as a string");
  (* Non-finite floats have no JSON representation: they render as null and
     must still produce a parseable line. *)
  List.iter
    (fun x ->
      Alcotest.(check bool)
        "non-finite float renders as null" true
        (rt (T.Jsonx.Float x) = T.Jsonx.Null))
    [ nan; infinity; neg_infinity ];
  (* Extreme integers. *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        "extreme int round-trips" true
        (rt (T.Jsonx.Int i) = T.Jsonx.Int i))
    [ max_int; min_int; 0; -1 ];
  (* Floats must round-trip bit-for-bit, including the %.17g fallback
     cases, denormals and integral values (which render with a decimal
     point so they come back as Float, not Int). *)
  List.iter
    (fun x ->
      match rt (T.Jsonx.Float x) with
      | T.Jsonx.Float y ->
          Alcotest.(check bool)
            (Printf.sprintf "float %h bit-identical" x)
            true
            (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      | other ->
          Alcotest.failf "float %h round-tripped as %s" x
            (T.Jsonx.to_string other))
    [
      0.1; 1. /. 3.; 1.0000000000000002; 1e-300; -1.5e308; 4.9e-324; 3.0;
      -0.; 1e16; 123456789.5;
    ];
  (* An integral float past 1e15 whose 12-digit form does not round-trip
     renders without a point, so it comes back as an [Int]: the value
     changes constructor, but the bytes are a fixed point. *)
  let v = T.Jsonx.parse "1760000000.1234e6" in
  Alcotest.(check bool) "parsed as a float" true
    (v = T.Jsonx.Float 1760000000123400.);
  let s = T.Jsonx.to_string v in
  Alcotest.(check string) "rendered without a point" "1760000000123400" s;
  Alcotest.(check bool) "parses back as an int" true
    (T.Jsonx.parse s = T.Jsonx.Int 1760000000123400);
  Alcotest.(check string) "re-renders to the same bytes" s
    (T.Jsonx.to_string (T.Jsonx.parse s))

(* A torn JSONL line — a prefix of a valid object cut mid-write — must be
   rejected, never silently completed. *)
let test_jsonx_rejects_torn_lines () =
  let line =
    T.Jsonx.to_string
      (T.Jsonx.Obj
         [
           ("name", T.Jsonx.String "run_summary");
           ("values", T.Jsonx.List [ T.Jsonx.Float 0.25; T.Jsonx.Int 3 ]);
         ])
  in
  for cut = 1 to String.length line - 1 do
    let torn = String.sub line 0 cut in
    match T.Jsonx.parse torn with
    | _ -> Alcotest.failf "parsed torn prefix %S" torn
    | exception T.Jsonx.Parse_error _ -> ()
  done;
  (* Two records glued onto one line are trailing garbage, not a value. *)
  match T.Jsonx.parse (line ^ line) with
  | _ -> Alcotest.fail "parsed two glued documents"
  | exception T.Jsonx.Parse_error _ -> ()

let test_jsonx_parse_rejects_garbage () =
  List.iter
    (fun s ->
      match T.Jsonx.parse s with
      | _ -> Alcotest.failf "parsed garbage %S" s
      | exception T.Jsonx.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* {1 The strict grammar} *)

let rejects s =
  match T.Jsonx.parse s with
  | v -> Alcotest.failf "accepted %S as %s" s (T.Jsonx.to_string v)
  | exception T.Jsonx.Parse_error _ -> ()

let parses_to s expected =
  match T.Jsonx.parse s with
  | v ->
      if v <> expected then
        Alcotest.failf "%S parsed as %s" s (T.Jsonx.to_string v)
  | exception T.Jsonx.Parse_error msg -> Alcotest.failf "rejected %S: %s" s msg

let test_jsonx_strict_numbers () =
  List.iter rejects
    [
      "+1"; ".5"; "01"; "-01"; "1."; "-"; "--1"; "1e"; "1e+"; "1.e5"; "0x10";
      "1_000"; "[01]"; "{\"n\":+2}"; "1e400"; "-1e400"; "NaN"; "Infinity";
    ];
  List.iter
    (fun (s, v) -> parses_to s v)
    T.Jsonx.
      [
        ("0", Int 0);
        ("-0", Int 0);
        ("42", Int 42);
        ("-7", Int (-7));
        ("4611686018427387903", Int max_int);
        ("-4611686018427387904", Int min_int);
        ("4611686018427387904", Float 4611686018427387904.);
        ("0.5", Float 0.5);
        ("-0.0", Float (-0.));
        ("1e5", Float 1e5);
        ("1E+5", Float 1e5);
        ("2.5e-3", Float 2.5e-3);
        ("[0,-1.5e-7]", List [ Int 0; Float (-1.5e-7) ]);
      ]

let test_jsonx_strict_strings () =
  List.iter rejects
    [
      {|"\u1_23"|};
      {|"\u12"|};
      {|"\u12g4"|};
      {|"\x41"|};
      (* lone surrogates: high at the end, high before a non-escape, high
         before a non-surrogate escape, low on its own *)
      {|"\ud83d"|};
      {|"\ud83dx"|};
      "\"\\ud83d\\u0041\"";
      {|"\ude00"|};
      "\"raw\001byte\"";
      "\"raw\ttab\"";
      "\"raw\nnewline\"";
    ];
  List.iter
    (fun (s, v) -> parses_to s (T.Jsonx.String v))
    [
      ("\"\\u0041\\u00e9\\u20ac\"", "A\xc3\xa9\xe2\x82\xac");
      (* a surrogate pair is one 4-byte UTF-8 sequence, not CESU-8 *)
      ("\"\\ud83d\\ude00\"", "\xf0\x9f\x98\x80");
      ("\"\\uDBFF\\uDFFF\"", "\xf4\x8f\xbf\xbf");
      ({|"a\/b"|}, "a/b");
      ("\"del\127 and \xff raw\"", "del\127 and \xff raw");
      ({|"\u0000"|}, "\000");
    ]

(* {1 Rendering is a contract}

   Task keys ([Runner.Task.key_of]) are rendered with Jsonx and seed the
   task RNG streams; cache entries and store checksums hash rendered
   bytes.  These outputs were captured from the Printf-based renderer and
   must never change. *)

let pinned_floats =
  [
    (0., "0.0");
    (-0., "-0.0");
    (5e-324, "4.94065645841e-324");
    (-5e-324, "-4.94065645841e-324");
    (2.2250738585072014e-308, "2.2250738585072014e-308");
    (max_float, "1.7976931348623157e+308");
    (-.max_float, "-1.7976931348623157e+308");
    (1e-5, "1e-05");
    (1e-4, "0.0001");
    (1.5e-5, "1.5e-05");
    (0.00012345, "0.00012345");
    (1e15, "1e+15");
    (1e16, "1e+16");
    (1e17, "1e+17");
    (0.1, "0.1");
    (1. /. 3., "0.33333333333333331");
    (2. /. 3., "0.66666666666666663");
    (0.1 +. 0.2, "0.30000000000000004");
    (0.1 +. 0.7, "0.79999999999999993");
    (9.9999999999995, "9.9999999999995008");
    (123456789012.5, "123456789012.5");
    (999999999999.5, "999999999999.5");
    (1e12, "1000000000000.0");
    (100000000000.25, "100000000000.25");
    (0.0009765625, "0.0009765625");
    (0.001953125, "0.001953125");
    (0.000244140625, "0.000244140625");
    (* exact 18-digit expansions: the 17-digit ties round to even *)
    (0x1p-25, "2.9802322387695312e-08");
    (0x3p-25, "8.9406967163085938e-08");
    (100001. /. 262144., "0.38147354125976562");
    (* an exact 13-digit expansion: a 12-digit tie, so no round trip *)
    (1001. /. 8192., "0.1221923828125");
    (1e15 +. 0.5, "1000000000000000.5");
    (4503599627370495.5, "4503599627370495.5");
    (1e-7, "1e-07");
    (1e-11, "1e-11");
    (9.99999999999e-12, "9.99999999999e-12");
    (0x1p-36, "1.4551915228366852e-11");
    (0x1.fffffffffffffp-37, "1.455191522836685e-11");
    (0x1.fffffffffffffp+39, "1099511627775.9999");
    (1099511627775.5, "1099511627775.5");
    (1e22, "1e+22");
    (1e23, "1e+23");
    (-2.5, "-2.5");
    (100.5, "100.5");
    (1e-300, "1e-300");
    (-1.5e308, "-1.5e+308");
  ]

let test_pinned_float_bytes () =
  List.iter
    (fun (f, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "bytes of %h" f)
        expected
        (T.Jsonx.to_string (T.Jsonx.Float f)))
    pinned_floats

let test_pinned_key_and_entry () =
  let key =
    Runner.Task.key_of ~family:"pin.sweep"
      T.Jsonx.
        [
          ("w", Int 64);
          ("p", Float 0.1);
          ("tau", Float (1. /. 3.));
          ("elapsed", Float 0.0009765625);
          ("d", Float 1e-5);
          ("big", Float 1e16);
        ]
  in
  Alcotest.(check string)
    "task key"
    {|pin.sweep:{"big":1e+16,"d":1e-05,"elapsed":0.0009765625,"p":0.1,"tau":0.33333333333333331,"w":64}|}
    key;
  (* The cache names an entry's file by the key's FNV-1a. *)
  let dir = Filename.temp_file "pin_cache" "" in
  Sys.remove dir;
  Runner.Cache.store (Runner.Cache.open_dir dir) ~key T.Jsonx.Null;
  let files = Sys.readdir dir in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Sys.rmdir dir;
  Alcotest.(check (array string))
    "cache file name" [| "85546f66bbf818db.json" |] files;
  let payoffs =
    [
      0x1.5555555555555p-2; 0x1.0624dd2f1a9fcp-10; 0x1.999999999999ap-4;
      -0x1.4p-3; 12.0;
    ]
  in
  Alcotest.(check string)
    "store entry line"
    {|88bc60caa639bec5:{"k":"default|payoff|16,32,32,64","v":[0.33333333333333331,0.001,0.1,-0.15625,12.0]}|}
    (Store.Codec.encode ~key:"default|payoff|16,32,32,64"
       (T.Jsonx.List (List.map (fun u -> T.Jsonx.Float u) payoffs)))

(* The rule the renderer used to apply with Printf, kept here only as the
   reference the exact formatter is held to. *)
let printf_rule f =
  if Float.is_nan f || Float.abs f = infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Doubles from the families where decimal formatting goes wrong: raw bit
   patterns, dyadics k/2^j, short decimals, a few ulps either side of a
   power of ten, subnormals and signed zeros. *)
let gen_double st =
  let int n = Random.State.int st n in
  let f =
    match int 6 with
    | 0 -> Int64.float_of_bits (Random.State.bits64 st)
    | 1 -> float_of_int (Random.State.bits st) /. Float.ldexp 1. (int 64)
    | 2 ->
        let digits = 1 + int 17 in
        float_of_string
          (Printf.sprintf "%de%d"
             (Random.State.full_int st (int_of_float (10. ** float_of_int digits)))
             (int 50 - 30))
    | 3 ->
        let p = float_of_string (Printf.sprintf "1e%d" (int 60 - 30)) in
        Int64.float_of_bits
          (Int64.add (Int64.bits_of_float p) (Int64.of_int (int 9 - 4)))
    | 4 ->
        Int64.float_of_bits
          (Int64.logand (Random.State.bits64 st) 0xF_FFFF_FFFF_FFFFL)
    | _ -> 0.
  in
  if Random.State.bool st then -.f else f

let batch = 1000

let test_exact_formatter_matches_printf =
  QCheck.Test.make ~count:1000
    ~name:"renderer = Printf rule on 10^6 doubles, and parses back bit for bit"
    (QCheck.make (QCheck.Gen.array_size (QCheck.Gen.return batch) gen_double))
    (fun doubles ->
      Array.iter
        (fun f ->
          let got = T.Jsonx.to_string (T.Jsonx.Float f) in
          let want = printf_rule f in
          if got <> want then
            QCheck.Test.fail_reportf "%h: rendered %s, Printf rule %s" f got
              want;
          (* Integral values past 1e15 may print without a point and come
             back as [Int]; the number is still exact. *)
          if Float.is_finite f then
            let v = T.Jsonx.parse got in
            match T.Jsonx.to_float_opt v with
            | Some g
              when Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
              ->
                ()
            | _ ->
                QCheck.Test.fail_reportf "%h: %s parsed back as %s" f got
                  (T.Jsonx.to_string v))
        doubles;
      true)

(* Strings are key bytes as much as floats are: the per-character
   escaping rule the renderer has always applied, as the reference. *)
let reference_string s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let test_string_bytes_match_reference =
  QCheck.Test.make ~count:2000 ~name:"string escaping = per-character rule"
    QCheck.(string_gen Gen.char)
    (fun s -> T.Jsonx.to_string (T.Jsonx.String s) = reference_string s)

(* The renderer [Jsonx] had before its byte writer walked the tree into a
   [Buffer] with these rules for the leaves; the exact float formatter
   equals [printf_rule] and the escaper [reference_string] (the two
   properties above), so this is that renderer in reference form. *)
let rec reference_render buf = function
  | T.Jsonx.Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (printf_rule f)
  | String s -> Buffer.add_string buf (reference_string s)
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          reference_render buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (reference_string k);
          Buffer.add_char buf ':';
          reference_render buf v)
        fields;
      Buffer.add_char buf '}'

let reference_to_string v =
  let buf = Buffer.create 16 in
  reference_render buf v;
  Buffer.contents buf

(* Strings short and long (past 16 bytes), plain or with bytes to escape;
   ints at both ends of the range; doubles from every [gen_double]
   family; lists and objects nested a few deep, and wide ones whose line
   passes 256 bytes so the writer must grow. *)
let gen_json_string =
  let open QCheck.Gen in
  let plain = map Char.chr (32 -- 126) in
  let escapable =
    frequency
      [ (6, plain); (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '\031' ]) ]
  in
  frequency
    [
      (3, string_size ~gen:plain (0 -- 16));
      (2, string_size ~gen:plain (17 -- 80));
      (2, string_size ~gen:escapable (0 -- 80));
      (1, string_size ~gen:char (0 -- 40));
    ]

let gen_json_leaf =
  let open QCheck.Gen in
  frequency
    [
      (1, return T.Jsonx.Null);
      (1, map (fun b -> T.Jsonx.Bool b) bool);
      ( 2,
        map
          (fun i -> T.Jsonx.Int i)
          (oneof [ oneofl [ min_int; max_int; 0; -1 ]; small_signed_int; int ])
      );
      (4, map (fun f -> T.Jsonx.Float f) gen_double);
      (3, map (fun s -> T.Jsonx.String s) gen_json_string);
    ]

let gen_json_tree =
  let open QCheck.Gen in
  sized_size (0 -- 4)
  @@ fix (fun self depth ->
         if depth = 0 then gen_json_leaf
         else
           let sub = self (depth - 1) in
           frequency
             [
               (2, gen_json_leaf);
               (2, map (fun l -> T.Jsonx.List l) (list_size (0 -- 6) sub));
               ( 2,
                 map
                   (fun l -> T.Jsonx.Obj l)
                   (list_size (0 -- 6) (pair gen_json_string sub)) );
               ( 1,
                 map
                   (fun l -> T.Jsonx.List l)
                   (list_size (20 -- 40) gen_json_leaf) );
             ])

let test_renderer_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"renderer = reference renderer on random trees"
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.return 20) gen_json_tree))
    (fun trees ->
      List.iter
        (fun v ->
          let got = T.Jsonx.to_string v and want = reference_to_string v in
          if got <> want then
            QCheck.Test.fail_reportf "rendered@.%s@.reference@.%s" got want)
        trees;
      true)

(* The key builders' digits: [add_int] appends [string_of_int]'s bytes. *)
let test_add_int_matches_string_of_int =
  QCheck.Test.make ~count:2000 ~name:"add_int = string_of_int"
    QCheck.(
      make
        Gen.(
          oneof
            [ oneofl [ min_int; max_int; 0; -1; 9; 10; 99; 100 ]; int; nat ]))
    (fun i ->
      let buf = Buffer.create 4 in
      Buffer.add_string buf "k=";
      T.Jsonx.add_int buf i;
      Buffer.contents buf = "k=" ^ string_of_int i)

(* [to_string] keeps no scratch between calls: two domains rendering the
   same trees at once get the bytes one domain gets alone. *)
let test_renderer_across_domains () =
  let st = Random.State.make [| 17 |] in
  let trees = Array.init 1000 (fun _ -> gen_json_tree st) in
  let alone = Array.map T.Jsonx.to_string trees in
  let long =
    Array.fold_left (fun n s -> if String.length s > 256 then n + 1 else n) 0
      alone
  in
  Alcotest.(check bool) "some lines pass 256 bytes" true (long > 0);
  let render () = Array.map T.Jsonx.to_string trees in
  let d1 = Domain.spawn render and d2 = Domain.spawn render in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Array.iteri
    (fun i want ->
      if r1.(i) <> want || r2.(i) <> want then
        Alcotest.failf "tree %d rendered differently on two domains" i)
    alone

let test_member_first_and_objects_only () =
  let json = T.Jsonx.parse {|{"a":1,"b":2,"a":3}|} in
  let member_int k v =
    match T.Jsonx.member k v with Some (T.Jsonx.Int i) -> Some i | _ -> None
  in
  Alcotest.(check (option int)) "first of duplicate keys" (Some 1)
    (member_int "a" json);
  Alcotest.(check (option int)) "other key" (Some 2) (member_int "b" json);
  Alcotest.(check bool) "missing key" true (T.Jsonx.member "c" json = None);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        ("not an object: " ^ T.Jsonx.to_string v)
        true
        (T.Jsonx.member "a" v = None))
    [
      T.Jsonx.Null;
      T.Jsonx.Bool true;
      T.Jsonx.Int 1;
      T.Jsonx.Float 1.5;
      T.Jsonx.String "a";
      T.Jsonx.List [ T.Jsonx.Obj [ ("a", T.Jsonx.Int 1) ] ];
    ]

(* The reader's [fields] keeps one bit per key: the 62nd key still has
   its first occurrence win, and a 63rd key set is refused outright. *)
let test_fields_key_limit () =
  let keys = Array.init 62 (Printf.sprintf "k%d") in
  let last = keys.(61) in
  let r = T.Jsonx.reader (Printf.sprintf {|{"%s":1,"%s":2}|} last last) in
  let got = ref [] in
  T.Jsonx.fields r keys (fun i -> got := (i, T.Jsonx.int r) :: !got);
  T.Jsonx.finish r;
  Alcotest.(check (list (pair int int))) "first of the 62nd key" [ (61, 1) ]
    !got;
  Alcotest.check_raises "63 keys"
    (Invalid_argument "Jsonx.fields: more than 62 keys") (fun () ->
      T.Jsonx.fields (T.Jsonx.reader "{}") (Array.make 63 "k") ignore)

(* Raw bytes of every length up to ten words, one after another, come
   back as written. *)
let test_writer_raw_lengths () =
  let w = T.Jsonx.writer () and want = Buffer.create 4096 in
  for n = 0 to 80 do
    let s = String.init n (fun i -> Char.chr (33 + ((n + i) mod 90))) in
    T.Jsonx.write_raw w s;
    Buffer.add_string want s
  done;
  Alcotest.(check string) "contents" (Buffer.contents want) (T.Jsonx.contents w)

let test_registry_isolation () =
  let a = registry () and b = registry () in
  T.Metric.incr (T.Registry.counter a "shared.name");
  Alcotest.(check int) "registries do not share cells" 0
    (T.Metric.count (T.Registry.counter b "shared.name"));
  let sink, events = T.Sink.memory () in
  T.Registry.add_sink a sink;
  T.Registry.emit b "only-b" (fun () -> []);
  Alcotest.(check int) "sinks are per-registry" 0 (List.length (events ()))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_report_renders () =
  let r = registry () in
  T.Metric.add (T.Registry.counter r "requests") 3;
  T.Metric.observe (T.Registry.histogram r "io.seconds") 0.25;
  let s = T.Report.render ~registry:r () in
  Alcotest.(check bool) "mentions the counter" true (contains s "requests");
  Alcotest.(check bool) "mentions the histogram" true (contains s "io.seconds")

(* {1 Layer instrumentation contracts} *)

let params = Dcf.Params.default

let capture f =
  let r = registry () in
  let sink, events = T.Sink.memory () in
  T.Registry.add_sink r sink;
  let x = f r in
  (x, r, events ())

let names events = List.map (fun (e : T.Event.t) -> e.T.Event.name) events

let test_solver_emits_convergence () =
  let _, _, events =
    capture (fun r ->
        Dcf.Solver.solve_profile ~telemetry:r params [| 32; 64; 128 |])
  in
  Alcotest.(check bool) "solver_convergence emitted" true
    (List.mem "solver_convergence" (names events));
  Alcotest.(check bool) "residual_trajectory emitted" true
    (List.mem "residual_trajectory" (names events));
  let conv =
    List.find (fun (e : T.Event.t) -> e.T.Event.name = "solver_convergence")
      events
  in
  (match (T.Event.field "iterations" conv, T.Event.field "converged" conv) with
  | Some (T.Jsonx.Int i), Some (T.Jsonx.Bool c) ->
      Alcotest.(check bool) "iterated" true (i > 0);
      Alcotest.(check bool) "converged" true c
  | _ -> Alcotest.fail "solver_convergence lacks iterations/converged")

let test_homogeneous_iteration_count () =
  let iterations = ref (-1) in
  let tau, p = Dcf.Solver.solve_homogeneous ~iterations params ~n:10 ~w:128 in
  Alcotest.(check bool) "tau in (0,1)" true (tau > 0. && tau < 1.);
  Alcotest.(check bool) "p in (0,1)" true (p > 0. && p < 1.);
  Alcotest.(check bool) "brent iterations reported" true (!iterations > 0);
  let iterations1 = ref (-1) in
  let _ = Dcf.Solver.solve_homogeneous ~iterations:iterations1 params ~n:1 ~w:64 in
  Alcotest.(check int) "n=1 is closed-form" 0 !iterations1;
  let ic = (Dcf.Solver.solve_classes params [ (64, 3); (128, 4) ]).iterations in
  Alcotest.(check bool) "class iterations reported" true (ic > 0)

let test_repeated_game_cache_and_events () =
  let outcome, r, events =
    capture (fun r ->
        Macgame.Repeated.run
          (Macgame.Oracle.create ~telemetry:r params)
          ~strategies:
            (Macgame.Repeated.all_tft ~n:4 ~initials:[| 100; 100; 100; 100 |])
          ~stages:6)
  in
  Alcotest.(check bool) "converged" true (outcome.converged_at <> None);
  (* A converged TFT run re-evaluates the same uniform profile every stage:
     the memoised payoff cache must be doing the work. *)
  let hits = T.Metric.count (T.Registry.counter r "oracle.cache.hits") in
  let misses =
    T.Metric.count (T.Registry.counter r "oracle.cache.misses")
  in
  Alcotest.(check bool) "cache hits on a converged run" true (hits > 0);
  Alcotest.(check bool) "some misses too" true (misses > 0);
  Alcotest.(check int) "one game_stage per stage" 6
    (List.length
       (List.filter (fun n -> n = "game_stage") (names events)));
  Alcotest.(check bool) "game_summary emitted" true
    (List.mem "game_summary" (names events))

let test_slotted_run_summary () =
  let result, _, events =
    capture (fun r ->
        Netsim.Slotted.run ~telemetry:r
          { params; cws = Array.make 4 64; duration = 1.; seed = 3 })
  in
  let a = result.Netsim.Slotted.airtime in
  Alcotest.(check (float 1e-9)) "airtime fractions sum to 1" 1.
    (a.idle_fraction +. a.success_fraction +. a.collision_fraction
   +. a.error_fraction);
  let summary =
    List.find (fun (e : T.Event.t) -> e.T.Event.name = "run_summary") events
  in
  (match T.Event.field "jain_fairness" summary with
  | Some (T.Jsonx.Float j) ->
      Alcotest.(check bool) "fairness in (0,1]" true (j > 0. && j <= 1.)
  | _ -> Alcotest.fail "run_summary lacks jain_fairness");
  match T.Event.field "success_share" summary with
  | Some (T.Jsonx.List shares) ->
      Alcotest.(check int) "one share per node" 4 (List.length shares)
  | _ -> Alcotest.fail "run_summary lacks success_share"

let test_spatial_run_summary () =
  let adjacency =
    Array.init 5 (fun i ->
        List.filter (fun j -> j >= 0 && j < 5 && j <> i) [ i - 1; i + 1 ])
  in
  let result, _, events =
    capture (fun r ->
        Netsim.Spatial.run ~telemetry:r
          {
            params = Dcf.Params.rts_cts;
            adjacency;
            cws = Array.make 5 32;
            duration = 1.;
            seed = 5;
          })
  in
  let a = result.Netsim.Spatial.airtime in
  Alcotest.(check bool) "busy + idle = 1" true
    (Float.abs (a.busy_fraction +. a.idle_fraction -. 1.) < 1e-9);
  Alcotest.(check bool) "busy in [0,1]" true
    (a.busy_fraction >= 0. && a.busy_fraction <= 1.);
  Alcotest.(check bool) "run_summary emitted" true
    (List.mem "run_summary" (names events))

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "events",
        [
          Alcotest.test_case "lazy without sinks" `Quick
            test_emit_is_lazy_without_sinks;
          Alcotest.test_case "memory sink" `Quick test_memory_sink_order;
          Alcotest.test_case "jsonl round-trip" `Quick
            test_jsonl_sink_round_trip;
          Alcotest.test_case "parser rejects garbage" `Quick
            test_jsonx_parse_rejects_garbage;
          Alcotest.test_case "round-trip edge cases" `Quick
            test_jsonx_round_trip_edges;
          Alcotest.test_case "torn lines rejected" `Quick
            test_jsonx_rejects_torn_lines;
          Alcotest.test_case "registry isolation" `Quick
            test_registry_isolation;
          Alcotest.test_case "report renders" `Quick test_report_renders;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "strict numbers" `Quick test_jsonx_strict_numbers;
          Alcotest.test_case "strict strings" `Quick test_jsonx_strict_strings;
          Alcotest.test_case "pinned float bytes" `Quick
            test_pinned_float_bytes;
          Alcotest.test_case "pinned key and store entry" `Quick
            test_pinned_key_and_entry;
          QCheck_alcotest.to_alcotest test_exact_formatter_matches_printf;
          QCheck_alcotest.to_alcotest test_string_bytes_match_reference;
          QCheck_alcotest.to_alcotest test_renderer_matches_reference;
          QCheck_alcotest.to_alcotest test_add_int_matches_string_of_int;
          Alcotest.test_case "renderer across domains" `Quick
            test_renderer_across_domains;
          Alcotest.test_case "member: first key, objects only" `Quick
            test_member_first_and_objects_only;
          Alcotest.test_case "fields: at most 62 keys" `Quick
            test_fields_key_limit;
          Alcotest.test_case "writer: raw bytes of every length" `Quick
            test_writer_raw_lengths;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "solver convergence" `Quick
            test_solver_emits_convergence;
          Alcotest.test_case "iteration counts" `Quick
            test_homogeneous_iteration_count;
          Alcotest.test_case "repeated game cache" `Quick
            test_repeated_game_cache_and_events;
          Alcotest.test_case "slotted run summary" `Quick
            test_slotted_run_summary;
          Alcotest.test_case "spatial run summary" `Quick
            test_spatial_run_summary;
        ] );
    ]
