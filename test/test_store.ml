(* Tests for the persistent equilibrium store: codec round-trips (qcheck),
   persistence across reopen, crash-safety (a failed write, torn final
   line, bit flips, kill mid-write), the advisory lock, compaction, and
   the oracle's store integration. *)

module J = Telemetry.Jsonx

let temp_dir () =
  let path = Filename.temp_file "store_test" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let active dir = Filename.concat dir "active.jsonl"

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        lines)

(* {1 Codec} *)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) (float_bound_exclusive 1e9);
        map (fun s -> J.String s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n = 0 then scalar
          else
            oneof
              [
                scalar;
                map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
                map
                  (fun kvs -> J.Obj kvs)
                  (list_size (int_bound 4)
                     (pair (string_size ~gen:printable (int_bound 8)) (self (n / 2))));
              ])
        (min n 4))

let test_codec_roundtrip_qcheck =
  QCheck.Test.make ~count:200 ~name:"codec round-trips key and value"
    (QCheck.make
       ~print:(fun (k, v) -> k ^ " -> " ^ J.to_string v)
       QCheck.Gen.(pair (string_size ~gen:printable (int_bound 40)) json_gen))
    (fun (key, value) ->
      (* Keys are store-internal (printable, no newlines); values arbitrary. *)
      QCheck.assume (not (String.contains key '\n'));
      match Store.Codec.decode (Store.Codec.encode ~key value) with
      | Some (k, v) -> k = key && J.to_string v = J.to_string value
      | None -> false)

let test_codec_rejects_damage () =
  let line = Store.Codec.encode ~key:"k" (J.Float 19.582154595880152) in
  Alcotest.(check bool) "intact decodes" true (Store.Codec.decode line <> None);
  (* Flip one character in the payload. *)
  let flipped = Bytes.of_string line in
  Bytes.set flipped (String.length line - 2) 'X';
  Alcotest.(check (option unit)) "bit flip rejected" None
    (Option.map ignore (Store.Codec.decode (Bytes.to_string flipped)));
  (* Truncate (torn final line). *)
  Alcotest.(check (option unit)) "torn line rejected" None
    (Option.map ignore
       (Store.Codec.decode (String.sub line 0 (String.length line - 3))));
  (* Damage the digest itself. *)
  let bad_digest = "0000000000000000" ^ String.sub line 16 (String.length line - 16) in
  Alcotest.(check (option unit)) "bad digest rejected" None
    (Option.map ignore (Store.Codec.decode bad_digest))

let test_float_bits_roundtrip () =
  (* The property the oracle's bit-identical store tier rests on. *)
  let values = [ 19.582154595880152; 0.04784643920098388; 1e-300; -0.0 ] in
  List.iter
    (fun f ->
      match Store.Codec.decode (Store.Codec.encode ~key:"f" (J.Float f)) with
      | Some (_, J.Float g) ->
          Alcotest.(check bool)
            (Printf.sprintf "bits of %h" f)
            true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | _ -> Alcotest.fail "float entry did not decode as float")
    values

(* {1 Store} *)

let test_persistence_across_reopen () =
  let dir = temp_dir () in
  Store.with_store dir (fun s ->
      Store.put s ~key:"a" (J.Int 1);
      Store.put s ~key:"b" (J.Float 2.5);
      Store.put s ~key:"a" (J.Int 3) (* supersedes *));
  Store.with_store dir (fun s ->
      Alcotest.(check int) "live entries" 2 (Store.entries s);
      Alcotest.(check bool) "later entry wins" true
        (Store.find s ~key:"a" = Some (J.Int 3));
      Alcotest.(check bool) "b kept" true (Store.find s ~key:"b" = Some (J.Float 2.5)))

(* On Unix a [file_descr] is the descriptor number. *)
let descr_of_int (fd : int) : Unix.file_descr = Obj.magic fd
let int_of_descr (fd : Unix.file_descr) : int = Obj.magic fd

let fd_target fd =
  match Unix.readlink ("/proc/self/fd/" ^ string_of_int (int_of_descr fd)) with
  | target -> Some target
  | exception Unix.Unix_error _ -> None

(* A put whose write fails is never served, not even after a reopen, and
   the store goes on taking puts.  The active log's descriptor, found
   through /proc/self/fd, is pointed at /dev/full, so the flush inside
   [put] fails with ENOSPC.  If the store still writes through that
   descriptor afterwards, it is pointed back at the log, as when the disk
   has room again. *)
let test_failed_put_not_served () =
  if not (Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd") then
    Alcotest.skip ();
  let dir = temp_dir () in
  let registry = Telemetry.Registry.create () in
  Store.with_store ~telemetry:registry dir (fun s ->
      Store.put s ~key:"a" (J.Int 1);
      let log = Unix.realpath (active dir) in
      let fd =
        Sys.readdir "/proc/self/fd"
        |> Array.to_list
        |> List.map (fun e -> descr_of_int (int_of_string e))
        |> List.find (fun fd -> fd_target fd = Some log)
      in
      let saved = Unix.dup fd in
      let full = Unix.openfile "/dev/full" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 full fd;
      Unix.close full;
      let raised =
        match Store.put s ~key:"b" (J.Int 2) with
        | () -> false
        | exception Sys_error _ -> true
      in
      if fd_target fd = Some "/dev/full" then Unix.dup2 saved fd;
      Unix.close saved;
      Alcotest.(check bool) "put raised" true raised;
      Alcotest.(check bool) "failed put not served" true
        (Store.find s ~key:"b" = None);
      Alcotest.(check bool) "acknowledged put still served" true
        (Store.find s ~key:"a" = Some (J.Int 1));
      Alcotest.(check int) "store.puts counts acknowledged puts" 1
        (Telemetry.Metric.count
           (Telemetry.Registry.counter registry "store.puts"));
      Store.put s ~key:"c" (J.Int 3);
      Alcotest.(check bool) "put after the failure served" true
        (Store.find s ~key:"c" = Some (J.Int 3)));
  Store.with_store dir (fun s ->
      Alcotest.(check bool) "failed put absent after reopen" true
        (Store.find s ~key:"b" = None);
      Alcotest.(check bool) "acknowledged put served after reopen" true
        (Store.find s ~key:"a" = Some (J.Int 1));
      Alcotest.(check bool) "later put served after reopen" true
        (Store.find s ~key:"c" = Some (J.Int 3)))

let test_torn_final_line_dropped () =
  let dir = temp_dir () in
  Store.with_store dir (fun s ->
      Store.put s ~key:"a" (J.Int 1);
      Store.put s ~key:"b" (J.Int 2));
  (* Simulate a kill mid-append: a half-written final line. *)
  let lines = read_lines (active dir) in
  let torn =
    match List.rev lines with
    | last :: rest ->
        List.rev (String.sub last 0 (String.length last / 2) :: rest)
    | [] -> assert false
  in
  write_lines (active dir) torn;
  let registry = Telemetry.Registry.create () in
  Store.with_store ~telemetry:registry dir (fun s ->
      Alcotest.(check int) "only the torn entry lost" 1 (Store.entries s);
      Alcotest.(check bool) "first entry intact" true
        (Store.find s ~key:"a" = Some (J.Int 1));
      Alcotest.(check int) "damage counted" 1
        (Telemetry.Metric.count
           (Telemetry.Registry.counter registry "store.corrupt_entries")))

let test_bit_flip_dropped_entrywise () =
  let dir = temp_dir () in
  Store.with_store dir (fun s ->
      List.iter (fun k -> Store.put s ~key:k (J.String k)) [ "a"; "b"; "c" ]);
  let lines = read_lines (active dir) in
  (* Corrupt the middle entry (line 2 of header + 3 entries). *)
  let flipped =
    List.mapi
      (fun i l ->
        if i = 2 then (
          let b = Bytes.of_string l in
          Bytes.set b (Bytes.length b - 1) '?';
          Bytes.to_string b)
        else l)
      lines
  in
  write_lines (active dir) flipped;
  Store.with_store dir (fun s ->
      Alcotest.(check int) "two entries survive" 2 (Store.entries s);
      Alcotest.(check bool) "a survives" true (Store.find s ~key:"a" <> None);
      Alcotest.(check bool) "c survives" true (Store.find s ~key:"c" <> None);
      Alcotest.(check bool) "b dropped" true (Store.find s ~key:"b" = None))

let test_bad_magic_raises () =
  let dir = temp_dir () in
  Store.with_store dir (fun s -> Store.put s ~key:"a" (J.Int 1));
  let lines = read_lines (active dir) in
  (* Refused, and the file left as it was. *)
  let refused_bytes bytes =
    Out_channel.with_open_bin (active dir) (fun oc ->
        Out_channel.output_string oc bytes);
    let refused =
      match Store.with_store dir (fun _ -> ()) with
      | exception Store.Corrupt _ -> true
      | () -> false
    in
    refused
    && In_channel.with_open_bin (active dir) In_channel.input_all = bytes
  in
  let refused header =
    refused_bytes (String.concat "\n" (header :: List.tl lines) ^ "\n")
  in
  (* A file that is not ours at all, and one that merely claims a
     different format: both must be refused whole, not salvaged. *)
  Alcotest.(check bool) "non-JSON header refused" true (refused "TRACEFILE99");
  Alcotest.(check bool) "wrong magic refused" true
    (refused {|{"magic":"NOTASTORE","version":1}|});
  Alcotest.(check bool) "future version refused" true
    (refused {|{"magic":"MACSTORE1","version":99}|});
  (* Without a newline the first line is not a prefix of the header
     either, so it is not taken for a torn one. *)
  Alcotest.(check bool) "unterminated foreign line refused" true
    (refused_bytes "TRACEFILE99");
  Alcotest.(check bool) "unterminated wrong magic refused" true
    (refused_bytes {|{"magic":"NOTASTORE","version":1}|})

let test_second_opener_fails_fast () =
  let dir = temp_dir () in
  let s = Store.open_dir dir in
  Alcotest.(check bool) "second open raises Locked" true
    (match Store.open_dir dir with
    | exception Store.Locked _ -> true
    | s2 ->
        Store.close s2;
        false);
  Store.close s;
  (* The lock dies with the holder: reopening after close succeeds. *)
  Store.with_store dir (fun _ -> ())

let test_compaction () =
  let dir = temp_dir () in
  let registry = Telemetry.Registry.create () in
  Store.with_store ~telemetry:registry dir (fun s ->
      for i = 1 to 10 do
        Store.put s ~key:"hot" (J.Int i)
      done;
      Store.put s ~key:"other" (J.Bool true);
      Alcotest.(check int) "live before compaction" 2 (Store.entries s);
      Store.compact s;
      Alcotest.(check int) "live after compaction" 2 (Store.entries s);
      Alcotest.(check bool) "latest value survives" true
        (Store.find s ~key:"hot" = Some (J.Int 10)));
  (* After compaction the active log holds only its header. *)
  Alcotest.(check int) "active log truncated" 1
    (List.length (read_lines (active dir)));
  Store.with_store dir (fun s ->
      Alcotest.(check int) "compacted store reopens" 2 (Store.entries s);
      Alcotest.(check bool) "value intact" true
        (Store.find s ~key:"hot" = Some (J.Int 10)))

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let link_exists path =
  match Unix.lstat path with
  | _ -> true
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false

(* A compaction whose write fails leaks nothing and loses nothing: the
   first segment's .tmp path is a symlink to /dev/full, so the closing
   flush fails with ENOSPC. *)
let test_failed_compaction_cleans_up () =
  if not (Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd") then
    Alcotest.skip ();
  let dir = temp_dir () in
  let served s =
    Alcotest.(check int) "entries" 2 (Store.entries s);
    Alcotest.(check bool) "a served" true
      (Store.find s ~key:"a" = Some (J.Int 1));
    Alcotest.(check bool) "b served" true
      (Store.find s ~key:"b" = Some (J.Int 2))
  in
  Store.with_store dir (fun s ->
      Store.put s ~key:"a" (J.Int 1);
      Store.put s ~key:"b" (J.Int 2);
      let tmp = Filename.concat dir "seg-000000.jsonl.tmp" in
      Unix.symlink "/dev/full" tmp;
      let before = open_fds () in
      let raised =
        match Store.compact s with
        | () -> false
        | exception Sys_error _ -> true
      in
      Alcotest.(check bool) "compact raised" true raised;
      Alcotest.(check int) "no descriptor leaked" before (open_fds ());
      Alcotest.(check bool) ".tmp removed" false (link_exists tmp);
      served s);
  Store.with_store dir served

let test_kill_mid_write_resumes () =
  (* The store-level mirror of the runner's resume-after-kill test: write
     some entries, tear the log mid-entry, reopen, and keep appending —
     the survivors plus the new entries must all be there on a third
     open. *)
  let dir = temp_dir () in
  Store.with_store dir (fun s ->
      Store.put s ~key:"a" (J.Int 1);
      Store.put s ~key:"b" (J.Int 2));
  let lines = read_lines (active dir) in
  let torn =
    match List.rev lines with
    | last :: rest -> List.rev (String.sub last 0 7 :: rest)
    | [] -> assert false
  in
  write_lines (active dir) torn;
  Store.with_store dir (fun s ->
      Alcotest.(check bool) "survivor readable" true
        (Store.find s ~key:"a" = Some (J.Int 1));
      Store.put s ~key:"b" (J.Int 22);
      Store.put s ~key:"c" (J.Int 3));
  Store.with_store dir (fun s ->
      Alcotest.(check int) "all live entries present" 3 (Store.entries s);
      Alcotest.(check bool) "recomputed entry wins" true
        (Store.find s ~key:"b" = Some (J.Int 22)))

let corrupt_count registry =
  Telemetry.Metric.count
    (Telemetry.Registry.counter registry "store.corrupt_entries")

(* A crash that tears the last line before its newline: the next open
   drops the torn entry and cuts the log back to its last newline, so
   what it appends next is a line of its own and survives a reopen. *)
let test_put_after_torn_tail_survives () =
  let dir = temp_dir () in
  Store.with_store dir (fun s ->
      Store.put s ~key:"a" (J.Int 1);
      Store.put s ~key:"b" (J.Int 2));
  let log = active dir in
  Unix.truncate log ((Unix.stat log).Unix.st_size - 10);
  let registry = Telemetry.Registry.create () in
  Store.with_store ~telemetry:registry dir (fun s ->
      Alcotest.(check bool) "a served" true
        (Store.find s ~key:"a" = Some (J.Int 1));
      Alcotest.(check bool) "torn b dropped" true (Store.find s ~key:"b" = None);
      Alcotest.(check int) "torn tail counted" 1 (corrupt_count registry);
      Store.put s ~key:"c" (J.Int 3));
  let registry = Telemetry.Registry.create () in
  Store.with_store ~telemetry:registry dir (fun s ->
      Alcotest.(check bool) "c served after reopen" true
        (Store.find s ~key:"c" = Some (J.Int 3));
      Alcotest.(check bool) "a still served" true
        (Store.find s ~key:"a" = Some (J.Int 1));
      Alcotest.(check int) "two entries" 2 (Store.entries s);
      Alcotest.(check int) "no damage left" 0 (corrupt_count registry))

(* A crash between creating the active log and flushing its header (at
   first open, or when [compact] restarts the log) leaves it empty or
   holding part of the header.  That log never took a put: it opens as a
   fresh one, takes puts and serves them after a reopen. *)
let opens_fresh what bytes =
  let dir = temp_dir () in
  Out_channel.with_open_bin (active dir) (fun oc ->
      Out_channel.output_string oc bytes);
  Store.with_store dir (fun s ->
      Alcotest.(check int) (what ^ ": no entries") 0 (Store.entries s);
      Store.put s ~key:"a" (J.Int 1));
  Store.with_store dir (fun s ->
      Alcotest.(check int) (what ^ ": one entry") 1 (Store.entries s);
      Alcotest.(check bool) (what ^ ": put served") true
        (Store.find s ~key:"a" = Some (J.Int 1)))

let test_empty_log_opens_fresh () = opens_fresh "empty log" ""

let test_torn_header_opens_fresh () =
  let header = Store.Codec.header in
  opens_fresh "header torn at 15 bytes" (String.sub header 0 15);
  opens_fresh "header without its newline" header

(* {1 Model check}

   Random runs of put, find, compact and close-and-reopen against a map
   from key to the bytes the value renders to.  The values include the
   renderings a parse could disturb: escaped strings, nested lists, -0
   and integral floats at and beyond 1e15. *)

type op = Put of string * J.t | Find of string | Compact | Reopen

let model_keys = [| "a"; "b|c"; "q\"uote"; "back\\slash"; "tab\tkey"; "\xc3\xa9" |]

let model_value_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        map (fun i -> J.Int i) int;
        oneofl
          [
            J.Float (-0.0); J.Float 1e15; J.Float (-1e15); J.Float 9007199254740992.;
            J.Float 1.5e17; J.Float 1e300; J.Float (-2.0); J.Int max_int;
            J.Int min_int; J.Null; J.Bool false;
          ];
        map (fun f -> J.Float f) (float_bound_exclusive 1e9);
        map (fun s -> J.String s)
          (string_size ~gen:(oneof [ printable; oneofl [ '"'; '\\'; '\n'; '\001'; '\x7f'; '\xc3' ] ])
             (int_bound 10));
      ]
  in
  fix
    (fun self n ->
      if n = 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun l -> J.List l) (list_size (int_bound 3) (self (n - 1))));
            ( 1,
              map (fun kvs -> J.Obj kvs)
                (list_size (int_bound 3)
                   (pair (oneofl [ "s"; "u"; "k"; "\"" ]) (self (n - 1)))) );
          ])
    3

let op_gen =
  let open QCheck.Gen in
  let key = oneofa model_keys in
  frequency
    [
      (5, map2 (fun k v -> Put (k, v)) key model_value_gen);
      (2, map (fun k -> Find k) key);
      (1, return Compact);
      (1, return Reopen);
    ]

let print_op = function
  | Put (k, v) -> Printf.sprintf "put %S %s" k (J.to_string v)
  | Find k -> Printf.sprintf "find %S" k
  | Compact -> "compact"
  | Reopen -> "reopen"

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let segment_lines dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"seg-" f)
  |> List.concat_map (fun f -> List.tl (read_lines (Filename.concat dir f)))

let test_model_qcheck =
  QCheck.Test.make ~count:150 ~name:"byte index agrees with a model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 1 30) op_gen))
    (fun ops ->
      let dir = temp_dir () in
      (* key -> (rendered value, the entry line its last put wrote) *)
      let model = Hashtbl.create 8 in
      let s = ref (Store.open_dir dir) in
      let agrees () =
        Store.entries !s = Hashtbl.length model
        && Array.for_all
             (fun key ->
               match (Store.find !s ~key, Hashtbl.find_opt model key) with
               | Some v, Some (bytes, _) -> J.to_string v = bytes
               | None, None -> true
               | _ -> false)
             model_keys
      in
      let step = function
        | Put (key, v) ->
            Store.put !s ~key v;
            Hashtbl.replace model key (J.to_string v, Store.Codec.encode ~key v);
            agrees ()
        | Find _ -> agrees ()
        | Compact ->
            Store.compact !s;
            let live =
              List.sort compare
                (Hashtbl.fold (fun _ (_, line) acc -> line :: acc) model [])
            in
            agrees ()
            && List.sort compare (segment_lines dir) = live
            && read_lines (active dir) = [ Store.Codec.header ]
        | Reopen ->
            Store.close !s;
            s := Store.open_dir dir;
            agrees ()
      in
      let ok = List.for_all step ops in
      Store.close !s;
      remove_dir dir;
      ok)

(* {1 Retained size}

   The index holds each entry's bytes: after 1 000 distinct 24-class
   oracle rows the store has grown by no more than the key and line
   bytes plus 16 words an entry (the hash table's cell, bucket share and
   string headers). *)
let test_index_holds_bytes () =
  let dir = temp_dir () in
  let n = 1_000 and classes = 24 in
  Store.with_store dir (fun store ->
      let oracle =
        Macgame.Oracle.create ~telemetry:(Telemetry.Registry.create ()) ~store
          Dcf.Params.default
      in
      let before = Obj.reachable_words (Obj.repr store) in
      for i = 0 to n - 1 do
        ignore
          (Macgame.Oracle.payoffs oracle
             (Array.init classes (fun c -> 16 + i + (41 * c))))
      done;
      let grown = Obj.reachable_words (Obj.repr store) - before in
      Alcotest.(check int) "entries" n (Store.entries store);
      let bytes =
        List.fold_left
          (fun acc line ->
            match Store.Codec.decode line with
            | Some (key, _) -> acc + String.length key + String.length line
            | None -> Alcotest.failf "unreadable line %S" line)
          0
          (List.tl (read_lines (active dir)))
      in
      let bound = (bytes / 8) + (16 * n) in
      if grown > bound then
        Alcotest.failf "store grew %d words for %d entries (bound %d)" grown n
          bound)

(* {1 Oracle integration} *)

let params = Dcf.Params.default

let test_oracle_store_bit_identical () =
  let dir = temp_dir () in
  let direct = Macgame.Oracle.uniform (Macgame.Oracle.analytic params) ~n:7 ~w:96 in
  let first =
    Store.with_store dir (fun store ->
        Macgame.Oracle.uniform
          (Macgame.Oracle.create ~backend:Analytic ~store params)
          ~n:7 ~w:96)
  in
  let second =
    Store.with_store dir (fun store ->
        let oracle = Macgame.Oracle.create ~backend:Analytic ~store params in
        let view, tier = Macgame.Oracle.uniform_outcome oracle ~n:7 ~w:96 in
        Alcotest.(check string) "answered from the store" "store"
          (Macgame.Oracle.tier_name tier);
        view)
  in
  let bits v = Int64.bits_of_float v in
  List.iter
    (fun (name, f) ->
      Alcotest.(check int64) name (bits (f direct)) (bits (f second));
      Alcotest.(check int64) (name ^ " cold") (bits (f direct)) (bits (f first)))
    [
      ("tau", fun (v : Macgame.Oracle.uniform_view) -> v.tau);
      ("p", fun v -> v.p);
      ("utility", fun v -> v.utility);
      ("throughput", fun v -> v.throughput);
      ("slot_time", fun v -> v.slot_time);
    ]

let test_oracle_profile_store_tier () =
  let dir = temp_dir () in
  let profile = [| 16; 32; 32; 64 |] in
  let cold =
    Store.with_store dir (fun store ->
        Macgame.Oracle.payoffs
          (Macgame.Oracle.create ~backend:Analytic ~store params)
          profile)
  in
  Store.with_store dir (fun store ->
      let oracle = Macgame.Oracle.create ~backend:Analytic ~store params in
      let payoffs, tier = Macgame.Oracle.payoffs_outcome oracle profile in
      Alcotest.(check string) "profile row from store" "store"
        (Macgame.Oracle.tier_name tier);
      Array.iteri
        (fun i u ->
          Alcotest.(check int64)
            (Printf.sprintf "payoff %d" i)
            (Int64.bits_of_float cold.(i))
            (Int64.bits_of_float u))
        payoffs)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "store"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest test_codec_roundtrip_qcheck;
          quick "damage rejected" test_codec_rejects_damage;
          quick "float bits round-trip" test_float_bits_roundtrip;
        ] );
      ( "store",
        [
          quick "persistence across reopen" test_persistence_across_reopen;
          quick "failed put not served" test_failed_put_not_served;
          quick "torn final line dropped" test_torn_final_line_dropped;
          quick "bit flip dropped entry-wise" test_bit_flip_dropped_entrywise;
          quick "bad magic raises Corrupt" test_bad_magic_raises;
          quick "second opener fails fast" test_second_opener_fails_fast;
          quick "compaction" test_compaction;
          quick "failed compaction cleans up" test_failed_compaction_cleans_up;
          quick "kill mid-write resumes" test_kill_mid_write_resumes;
          quick "put after a torn tail survives"
            test_put_after_torn_tail_survives;
          quick "empty active log opens fresh" test_empty_log_opens_fresh;
          quick "torn header opens fresh" test_torn_header_opens_fresh;
          quick "index holds entry bytes" test_index_holds_bytes;
          QCheck_alcotest.to_alcotest test_model_qcheck;
        ] );
      ( "oracle",
        [
          quick "store tier bit-identical" test_oracle_store_bit_identical;
          quick "profile rows persist" test_oracle_profile_store_tier;
        ] );
    ]
