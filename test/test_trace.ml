(* Flight-recorder suite: record packing round-trips, ring-wrap
   accounting, the zero-cost disabled path, span identity under
   exceptions, the on-disk format's corruption checks, trace views
   (summary / chrome export / diff), and a qcheck property that
   multi-domain [Runner.map] traces merge causally. *)

let fake_clock () =
  let t = ref 0 in
  fun () ->
    t := !t + 10;
    !t

(* {1 Recording} *)

let test_roundtrip () =
  let r = Telemetry.Recorder.create ~capacity:64 ~clock:(fake_clock ()) () in
  Telemetry.Recorder.set_enabled r true;
  let solve = Telemetry.Recorder.intern r "solve" in
  let step = Telemetry.Recorder.intern r "step" in
  Alcotest.(check int) "intern is stable" solve (Telemetry.Recorder.intern r "solve");
  let outer = Telemetry.Recorder.begin_span r solve 7 8 in
  Telemetry.Recorder.instant r step 1 2;
  let inner = Telemetry.Recorder.begin_span r step 3 4 in
  Alcotest.(check int) "current span" inner (Telemetry.Recorder.current_span r);
  Telemetry.Recorder.end_span r step inner;
  Telemetry.Recorder.end_span r solve outer;
  let dump = Telemetry.Recorder.drain ~registry:(Telemetry.Registry.create ()) r in
  Alcotest.(check int) "record count" 5 (Array.length dump.records);
  Alcotest.(check int) "no loss" 0 dump.dropped;
  Alcotest.(check (array string)) "names" [| "solve"; "step" |] dump.names;
  let r0 = dump.records.(0) in
  Alcotest.(check int) "begin kind" Telemetry.Recorder.kind_begin r0.kind;
  Alcotest.(check int) "begin name" solve r0.name;
  Alcotest.(check int) "begin span id" outer r0.span;
  Alcotest.(check int) "begin is root" 0 r0.parent;
  Alcotest.(check int) "payload a" 7 r0.a;
  Alcotest.(check int) "payload b" 8 r0.b;
  let r1 = dump.records.(1) in
  Alcotest.(check int) "instant kind" Telemetry.Recorder.kind_instant r1.kind;
  Alcotest.(check int) "instant attributed to open span" outer r1.span;
  let r2 = dump.records.(2) in
  Alcotest.(check int) "nested parent" outer r2.parent;
  Alcotest.(check int) "nested id" inner r2.span;
  (* Timestamps strictly increase within the (single) ring. *)
  Array.iteri
    (fun i (rec_ : Telemetry.Recorder.record) ->
      if i > 0 then
        Alcotest.(check bool)
          "ts strictly increasing" true
          (rec_.ts > dump.records.(i - 1).ts))
    dump.records;
  (* File round-trip is field-exact. *)
  let path = Filename.temp_file "trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.Trace_file.write path dump;
      let back = Telemetry.Trace_file.read path in
      Alcotest.(check int) "names back" 2 (Array.length back.names);
      Alcotest.(check int) "dropped back" dump.dropped back.dropped;
      Alcotest.(check bool)
        "records bit-equal" true
        (back.records = dump.records && back.names = dump.names))

let test_wrap_and_dropped_counter () =
  let r = Telemetry.Recorder.create ~capacity:16 ~clock:(fake_clock ()) () in
  Telemetry.Recorder.set_enabled r true;
  let tick = Telemetry.Recorder.intern r "tick" in
  for i = 1 to 40 do
    Telemetry.Recorder.instant r tick i 0
  done;
  let st = Telemetry.Recorder.stats r in
  Alcotest.(check int) "written" 40 st.written;
  Alcotest.(check int) "held" 16 st.live;
  Alcotest.(check int) "dropped" 24 st.dropped;
  let registry = Telemetry.Registry.create () in
  let dump = Telemetry.Recorder.drain ~registry r in
  Alcotest.(check int) "drain reports loss" 24 dump.dropped;
  Alcotest.(check int) "only newest survive" 16 (Array.length dump.records);
  Alcotest.(check int) "oldest surviving record" 25 dump.records.(0).a;
  Alcotest.(check int) "newest surviving record" 40 dump.records.(15).a;
  Alcotest.(check int)
    "dropped_records counter" 24
    (Telemetry.Metric.count
       (Telemetry.Registry.counter registry "telemetry.trace.dropped_records"));
  (* Loss is visible in both report surfaces. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let report = Telemetry.Report.render ~registry ~recorder:r () in
  Alcotest.(check bool)
    "report names the counter" true
    (contains report "telemetry.trace.dropped_records");
  let summary = Telemetry.Trace_view.summarize dump in
  Alcotest.(check int) "summary carries dropped" 24 summary.dropped;
  (* A resetting drain leaves the rings empty. *)
  let st = Telemetry.Recorder.stats r in
  Alcotest.(check int) "reset" 0 st.written

let test_disabled_is_free () =
  let r = Telemetry.Recorder.create ~clock:(fake_clock ()) () in
  let name = Telemetry.Recorder.intern r "noop" in
  Alcotest.(check int) "begin returns 0" 0 (Telemetry.Recorder.begin_span r name 1 2);
  Telemetry.Recorder.instant r name 1 2;
  Telemetry.Recorder.end_span r name 0;
  Alcotest.(check int) "current span 0" 0 (Telemetry.Recorder.current_span r);
  (* [with_span] on a disabled recorder allocates nothing beyond the
     caller's closure (here a closed, static one). *)
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let body () = () in
  let none = words (fun () -> ()) in
  let spans =
    words (fun () ->
        for _ = 1 to 1_000_000 do
          Telemetry.Recorder.with_span r name 1 2 body
        done)
  in
  Alcotest.(check (float 0.)) "with_span: no words over 10^6 calls" 0.
    (spans -. none);
  let st = Telemetry.Recorder.stats r in
  Alcotest.(check int) "nothing written" 0 st.written;
  Alcotest.(check int) "no rings touched" 0 st.rings

(* The spatial simulator must be bit-identical with the recorder on and
   off: recording never reads the RNG or perturbs scheduling. *)
let test_spatial_bit_identical () =
  let adjacency =
    Array.init 12 (fun i ->
        List.filter (fun j -> j >= 0 && j < 12 && j <> i) [ i - 1; i + 1 ])
  in
  let config =
    {
      Netsim.Spatial.params = Dcf.Params.rts_cts;
      adjacency;
      cws = Array.make 12 32;
      duration = 0.3;
      seed = 5;
    }
  in
  let telemetry = Telemetry.Registry.create () in
  let recorder = Telemetry.Recorder.default in
  Telemetry.Recorder.set_enabled recorder false;
  let off = Netsim.Spatial.run ~telemetry config in
  Telemetry.Recorder.set_enabled recorder true;
  let on_ = Netsim.Spatial.run ~telemetry config in
  Telemetry.Recorder.set_enabled recorder false;
  let dump = Telemetry.Recorder.drain ~registry:telemetry recorder in
  Alcotest.(check bool)
    "traced run recorded something" true
    (Array.length dump.records > 0);
  Alcotest.(check bool) "results bit-identical" true (compare off on_ = 0)

(* {1 Span identity} *)

let test_with_span_ids_and_exception () =
  let registry = Telemetry.Registry.create () in
  let recorder = Telemetry.Recorder.create ~clock:(fake_clock ()) () in
  let name = Telemetry.Recorder.intern recorder in
  let with_span s f = Telemetry.Recorder.with_span recorder (name s) 0 0 f in
  Telemetry.Recorder.set_enabled recorder true;
  Alcotest.(check int) "returns the body's value" 7
    (with_span "value" (fun () -> 7));
  ignore (Telemetry.Recorder.drain ~registry recorder);
  Alcotest.check_raises "re-raises the body's exception" (Failure "boom")
    (fun () ->
      with_span "outer" (fun () ->
          with_span "inner" (fun () -> failwith "boom")));
  Alcotest.(check int)
    "recorder stack restored" 0
    (Telemetry.Recorder.current_span recorder);
  let dump = Telemetry.Recorder.drain ~registry recorder in
  Alcotest.(check int) "two begins, two ends" 4 (Array.length dump.records);
  let begins =
    Array.to_list dump.records
    |> List.filter (fun (r : Telemetry.Recorder.record) ->
           r.kind = Telemetry.Recorder.kind_begin)
  in
  let ends =
    Array.to_list dump.records
    |> List.filter (fun (r : Telemetry.Recorder.record) ->
           r.kind = Telemetry.Recorder.kind_end)
  in
  Alcotest.(check int) "both spans closed on raise" 2 (List.length ends);
  (match begins with
  | [ outer; inner ] ->
      Alcotest.(check int) "outer is root" 0 outer.parent;
      Alcotest.(check int) "inner's parent is outer" outer.span inner.parent
  | _ -> Alcotest.fail "expected exactly two begins");
  (* After the unwind, new spans open at the root again. *)
  with_span "after" (fun () -> ());
  let dump = Telemetry.Recorder.drain ~registry recorder in
  Alcotest.(check int) "fresh root span" 0 dump.records.(0).parent

(* {1 File format} *)

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let test_corrupt_files_rejected () =
  let path = Filename.temp_file "trace" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let rejects what bytes =
        write_file path bytes;
        match Telemetry.Trace_file.read path with
        | _ -> Alcotest.fail (what ^ ": corrupt trace was accepted")
        | exception Telemetry.Trace_file.Corrupt _ -> ()
      in
      rejects "empty" "";
      rejects "bad magic" "NOTATRACE-------";
      rejects "truncated header" (Telemetry.Trace_file.magic ^ "\x01");
      (* A valid trace with trailing garbage must also be rejected. *)
      let r = Telemetry.Recorder.create ~capacity:16 ~clock:(fake_clock ()) () in
      Telemetry.Recorder.set_enabled r true;
      Telemetry.Recorder.instant r (Telemetry.Recorder.intern r "x") 1 2;
      let dump = Telemetry.Recorder.drain ~registry:(Telemetry.Registry.create ()) r in
      Telemetry.Trace_file.write path dump;
      let good = In_channel.with_open_bin path In_channel.input_all in
      rejects "trailing bytes" (good ^ "zzz");
      rejects "truncated body" (String.sub good 0 (String.length good - 4));
      (* And the original must read back fine. *)
      write_file path good;
      let back = Telemetry.Trace_file.read path in
      Alcotest.(check int) "good file reads" 1 (Array.length back.records))

(* Mutation fuzzer over real trace files: flip, overwrite, insert, delete
   and truncate bytes of a trace recorded from a short spatial run.  Only
   [Corrupt] may escape [read], and a file it accepts must re-encode
   byte-identically — so no field can be wrapped into range. *)
let recorded_trace =
  lazy
    (let adjacency =
       Array.init 6 (fun i ->
           List.filter (fun j -> j >= 0 && j < 6 && j <> i) [ i - 1; i + 1 ])
     in
     let config =
       {
         Netsim.Spatial.params = Dcf.Params.default;
         adjacency;
         cws = Array.make 6 16;
         duration = 0.02;
         seed = 3;
       }
     in
     let registry = Telemetry.Registry.create () in
     let recorder = Telemetry.Recorder.default in
     ignore (Telemetry.Recorder.drain ~registry recorder);
     Telemetry.Recorder.set_enabled recorder true;
     ignore (Netsim.Spatial.run ~telemetry:registry config);
     Telemetry.Recorder.set_enabled recorder false;
     let dump = Telemetry.Recorder.drain ~registry recorder in
     let path = Filename.temp_file "trace_seed" ".bin" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         Telemetry.Trace_file.write path dump;
         In_channel.with_open_bin path In_channel.input_all))

(* Bytes an overwrite or insert writes: the edges of a little-endian
   field's top byte, where the sign and the int range live. *)
let interesting = "\000\001\063\064\127\128\191\192\254\255"

let mutate st bytes =
  let int n = Random.State.int st n in
  let byte () =
    if Random.State.bool st then interesting.[int (String.length interesting)]
    else Char.chr (int 256)
  in
  let once s =
    let n = String.length s in
    let at = int (n + 1) in
    let set i c =
      let b = Bytes.of_string s in
      Bytes.set b i c;
      Bytes.to_string b
    in
    match int 6 with
    | 0 when n > 0 -> set (int n) (byte ())
    | 1 when n > 0 ->
        let i = int n in
        set i (Char.chr (Char.code s.[i] lxor (1 lsl int 8)))
    | 2 when n > 0 ->
        (* The top bit: bit 63 when the byte ends a field. *)
        let i = int n in
        set i (Char.chr (Char.code s.[i] lxor 0x80))
    | 3 -> String.sub s 0 at ^ String.make 1 (byte ()) ^ String.sub s at (n - at)
    | 4 when at < n -> String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
    | _ -> String.sub s 0 at
  in
  let rec go s k = if k = 0 then s else go (once s) (k - 1) in
  go bytes (1 + int 3)

let test_fuzz_trace_file =
  QCheck.Test.make ~count:3000 ~name:"mutated traces: Corrupt or exact"
    (QCheck.make ~print:String.escaped (fun st ->
         mutate st (Lazy.force recorded_trace)))
    (fun bytes ->
      let path = Filename.temp_file "trace_fuzz" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          write_file path bytes;
          match Telemetry.Trace_file.read path with
          | exception Telemetry.Trace_file.Corrupt _ -> true
          | dump ->
              Telemetry.Trace_file.write path dump;
              In_channel.with_open_bin path In_channel.input_all = bytes))

(* {1 Views} *)

(* Hand-build a dump through a recorder with a deterministic clock. *)
let synthetic_dump spans =
  (* [spans]: (name, start_ticks, duration_ticks) — realised by driving a
     10ns-per-call clock; simpler: record directly with a settable clock. *)
  let now = ref 0 in
  let r = Telemetry.Recorder.create ~clock:(fun () -> !now) () in
  Telemetry.Recorder.set_enabled r true;
  List.iter
    (fun (name, t0, dt) ->
      let nid = Telemetry.Recorder.intern r name in
      now := t0;
      let id = Telemetry.Recorder.begin_span r nid 0 0 in
      now := t0 + dt;
      Telemetry.Recorder.end_span r nid id)
    spans;
  Telemetry.Recorder.drain ~registry:(Telemetry.Registry.create ()) r

let test_summary_self_time () =
  (* parent [1000, 2000); child [1100, 1700) nested via the open-span
     stack.  (Times start above 0: the recorder clamps timestamps
     strictly past the ring's initial last_ts of 0.) *)
  let now = ref 0 in
  let r = Telemetry.Recorder.create ~clock:(fun () -> !now) () in
  Telemetry.Recorder.set_enabled r true;
  let p = Telemetry.Recorder.intern r "parent" in
  let c = Telemetry.Recorder.intern r "child" in
  now := 1000;
  let pid = Telemetry.Recorder.begin_span r p 0 0 in
  now := 1100;
  let cid = Telemetry.Recorder.begin_span r c 0 0 in
  now := 1700;
  Telemetry.Recorder.end_span r c cid;
  now := 2000;
  Telemetry.Recorder.end_span r p pid;
  let dump = Telemetry.Recorder.drain ~registry:(Telemetry.Registry.create ()) r in
  let s = Telemetry.Trace_view.summarize dump in
  Alcotest.(check int) "two span names" 2 (List.length s.spans);
  let find name = List.find (fun st -> st.Telemetry.Trace_view.name = name) s.spans in
  let parent = find "parent" and child = find "child" in
  Alcotest.(check (float 1e-12)) "parent total" 1e-6 parent.total_s;
  (* Self = 1000 - 600 child ns = 400 ns, minus nothing else. *)
  Alcotest.(check (float 1e-12)) "parent self" 0.4e-6 parent.self_s;
  Alcotest.(check (float 1e-12)) "child self = total" child.total_s child.self_s;
  Alcotest.(check int) "no orphans" 0 s.orphan_ends;
  Alcotest.(check int) "no unclosed" 0 s.unclosed

let test_chrome_export_valid () =
  let dump = synthetic_dump [ ("a", 0, 500); ("b", 600, 200) ] in
  let json = Telemetry.Trace_view.to_chrome dump in
  let text = Telemetry.Jsonx.to_string json in
  (* Valid JSON: the parser round-trips it. *)
  let parsed = Telemetry.Jsonx.parse text in
  (match Telemetry.Jsonx.member "traceEvents" parsed with
  | Some (Telemetry.Jsonx.List events) ->
      Alcotest.(check int)
        "one event per record"
        (Array.length dump.records)
        (List.length events);
      let phases =
        List.filter_map
          (fun e ->
            match Telemetry.Jsonx.member "ph" e with
            | Some (Telemetry.Jsonx.String p) -> Some p
            | _ -> None)
          events
      in
      Alcotest.(check int)
        "B/E balance"
        (List.length (List.filter (( = ) "B") phases))
        (List.length (List.filter (( = ) "E") phases))
  | _ -> Alcotest.fail "no traceEvents array");
  match Telemetry.Jsonx.member "otherData" parsed with
  | Some other ->
      Alcotest.(check bool)
        "dropped_records present" true
        (Telemetry.Jsonx.member "dropped_records" other <> None)
  | None -> Alcotest.fail "no otherData"

let test_diff_thresholds () =
  let base = synthetic_dump [ ("solve", 0, 1_000_000); ("sim", 0, 2_000_000) ] in
  let same = synthetic_dump [ ("solve", 0, 1_000_000); ("sim", 0, 2_000_000) ] in
  let slow = synthetic_dump [ ("solve", 0, 1_000_000); ("sim", 0, 3_000_000) ] in
  let clean = Telemetry.Trace_view.diff ~threshold:0.25 ~min_seconds:1e-6 base same in
  Alcotest.(check int) "identical traces: nothing flagged" 0
    (Telemetry.Trace_view.flagged clean);
  let flagged = Telemetry.Trace_view.diff ~threshold:0.25 ~min_seconds:1e-6 base slow in
  Alcotest.(check int) "injected slowdown flagged" 1
    (Telemetry.Trace_view.flagged flagged);
  (match List.find_opt (fun d -> d.Telemetry.Trace_view.flagged) flagged with
  | Some d -> Alcotest.(check string) "the slow span" "sim" d.span
  | None -> Alcotest.fail "expected a flagged delta");
  (* The noise floor suppresses tiny spans even at huge ratios. *)
  let tiny_a = synthetic_dump [ ("noise", 0, 10) ] in
  let tiny_b = synthetic_dump [ ("noise", 0, 100) ] in
  let d = Telemetry.Trace_view.diff ~threshold:0.25 ~min_seconds:1e-4 tiny_a tiny_b in
  Alcotest.(check int) "below the floor: unflagged" 0 (Telemetry.Trace_view.flagged d)

(* The gate needs a span's total and its shortest instance to move: a
   burst of load on a shared machine stretches a few of a recording's
   repeats, a regression stretches them all. *)
let test_diff_noise_aware () =
  let runs ?(count = 10) dur =
    synthetic_dump
      (List.init count (fun i ->
           ("spatial.run", 1000 + (i * 1_000_000), dur i)))
  in
  let base = runs (fun _ -> 200_000) in
  let diff b =
    Telemetry.Trace_view.flagged
      (Telemetry.Trace_view.diff ~threshold:0.25 ~min_seconds:1e-4 base b)
  in
  Alcotest.(check int) "one instance of ten 3x slower: not flagged" 0
    (diff (runs (fun i -> if i = 3 then 600_000 else 200_000)));
  (* The total moves 60% here; the shortest instance does not. *)
  Alcotest.(check int) "three instances of ten 3x slower: not flagged" 0
    (diff (runs (fun i -> if i mod 3 = 1 then 600_000 else 200_000)));
  (* Here the shortest instance moves 100% and the total 5%. *)
  Alcotest.(check int) "only the shortest instance moved: not flagged" 0
    (Telemetry.Trace_view.flagged
       (Telemetry.Trace_view.diff ~threshold:0.25 ~min_seconds:1e-4
          (runs (fun i -> if i = 0 then 100_000 else 200_000))
          base));
  Alcotest.(check int) "uniform 1.3x slowdown: flagged" 1
    (diff (runs (fun _ -> 260_000)));
  Alcotest.(check int) "count change: flagged" 1
    (diff (runs ~count:11 (fun _ -> 200_000)))

(* {1 Multi-domain merge} *)

(* Runner.map on k domains records worker spans, task spans, idle
   instants and oracle traffic into per-domain rings; the drained merge
   must be timestamp-sorted, strictly monotonic per domain, and causally
   ordered (a span's begin precedes its end and its children's begins). *)
let test_multidomain_merge_qcheck =
  QCheck.Test.make ~count:15 ~name:"multi-domain Runner.map drains causally"
    QCheck.(pair (int_range 1 24) (int_range 1 4))
    (fun (tasks, workers) ->
      let recorder = Telemetry.Recorder.default in
      ignore (Telemetry.Recorder.drain ~registry:(Telemetry.Registry.create ()) recorder);
      Telemetry.Recorder.set_enabled recorder true;
      let config = { Runner.workers; cache_dir = None; seed = 0 } in
      let work =
        Array.init tasks (fun i ->
            Runner.Task.make
              ~key:
                (Runner.Task.key_of ~family:"trace.test"
                   [ ("i", Telemetry.Jsonx.Int i) ])
              ~encode:(fun v -> Telemetry.Jsonx.Float v)
              ~decode:Telemetry.Jsonx.to_float_opt
              (fun rng -> Prelude.Rng.float rng 1.))
      in
      ignore
        (Runner.map
           ~registry:(Telemetry.Registry.create ())
           ~config ~name:"trace.test" work);
      Telemetry.Recorder.set_enabled recorder false;
      let dump =
        Telemetry.Recorder.drain ~registry:(Telemetry.Registry.create ()) recorder
      in
      if dump.dropped <> 0 then QCheck.Test.fail_report "unexpected wrap";
      if Array.length dump.records = 0 then
        QCheck.Test.fail_report "nothing recorded";
      let last_global = ref min_int in
      let last_per_domain = Hashtbl.create 8 in
      let begin_pos = Hashtbl.create 64 in
      Array.iteri
        (fun i (r : Telemetry.Recorder.record) ->
          if r.ts < !last_global then
            QCheck.Test.fail_report "merge not timestamp-sorted";
          last_global := r.ts;
          (match Hashtbl.find_opt last_per_domain r.domain with
          | Some prev when r.ts <= prev ->
              QCheck.Test.fail_report "per-domain timestamps not strict"
          | _ -> ());
          Hashtbl.replace last_per_domain r.domain r.ts;
          if r.kind = Telemetry.Recorder.kind_begin then begin
            if r.parent <> 0 && not (Hashtbl.mem begin_pos r.parent) then
              QCheck.Test.fail_report "child began before its parent";
            Hashtbl.replace begin_pos r.span i
          end
          else if r.kind = Telemetry.Recorder.kind_end then
            if not (Hashtbl.mem begin_pos r.span) then
              QCheck.Test.fail_report "end before begin")
        dump.records;
      true)

let () =
  Telemetry.Registry.reset Telemetry.Registry.default;
  Alcotest.run "trace"
    [
      ( "recorder",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "wrap + dropped counter" `Quick
            test_wrap_and_dropped_counter;
          Alcotest.test_case "disabled is free" `Quick test_disabled_is_free;
          Alcotest.test_case "spatial bit-identical on/off" `Quick
            test_spatial_bit_identical;
          Alcotest.test_case "with_span ids survive exceptions" `Quick
            test_with_span_ids_and_exception;
        ] );
      ( "file",
        [
          Alcotest.test_case "corrupt files rejected" `Quick
            test_corrupt_files_rejected;
          QCheck_alcotest.to_alcotest test_fuzz_trace_file;
        ] );
      ( "views",
        [
          Alcotest.test_case "summary self time" `Quick test_summary_self_time;
          Alcotest.test_case "chrome export valid" `Quick
            test_chrome_export_valid;
          Alcotest.test_case "diff thresholds" `Quick test_diff_thresholds;
          Alcotest.test_case "diff needs the total and the shortest instance"
            `Quick test_diff_noise_aware;
        ] );
      ( "merge",
        [ QCheck_alcotest.to_alcotest test_multidomain_merge_qcheck ] );
    ]
