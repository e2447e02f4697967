type t = { dir : string; mutex : Mutex.t }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir dir =
  mkdir_p dir;
  { dir; mutex = Mutex.create () }

let path_of t ~key =
  Filename.concat t.dir (Prelude.Util.hex64 (Prelude.Util.fnv1a64 key) ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let find t ~key =
  let path = path_of t ~key in
  match read_file path with
  | exception Sys_error _ -> None
  | contents -> (
      match Telemetry.Jsonx.parse (String.trim contents) with
      | exception Telemetry.Jsonx.Parse_error _ -> None
      | json -> (
          match Telemetry.Jsonx.member "key" json with
          | Some (Telemetry.Jsonx.String stored) when String.equal stored key ->
              Telemetry.Jsonx.member "value" json
          | _ -> None))

let store t ~key value =
  let path = path_of t ~key in
  let line =
    Telemetry.Jsonx.to_string
      (Telemetry.Jsonx.Obj
         [ ("key", Telemetry.Jsonx.String key); ("value", value) ])
  in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Prelude.Util.write_atomically path (fun oc ->
          output_string oc line;
          output_char oc '\n'))

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> 0
  | files ->
      Array.fold_left
        (fun acc f -> if Filename.check_suffix f ".json" then acc + 1 else acc)
        0 files

type gc_stats = {
  scanned : int;
  evicted : int;
  corrupt : int;
  bytes_freed : int;
  bytes_kept : int;
}

(* A well-formed entry parses as {"key": <string>, "value": _}; anything
   else in a .json file is damage (torn write predating the tmp+rename
   scheme, disk corruption) and is always evicted. *)
let entry_ok path =
  match read_file path with
  | exception Sys_error _ -> false
  | contents -> (
      match Telemetry.Jsonx.parse (String.trim contents) with
      | exception Telemetry.Jsonx.Parse_error _ -> false
      | json -> (
          match
            (Telemetry.Jsonx.member "key" json, Telemetry.Jsonx.member "value" json)
          with
          | Some (Telemetry.Jsonx.String _), Some _ -> true
          | _ -> false))

let gc ?(telemetry = Telemetry.Registry.default) ?max_age_days ?max_bytes t =
  let evicted_c = Telemetry.Registry.counter telemetry "runner.cache.evicted" in
  let now = Unix.gettimeofday () in
  let files =
    match Sys.readdir t.dir with exception Sys_error _ -> [||] | fs -> fs
  in
  let stats =
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.filter_map (fun f ->
           let path = Filename.concat t.dir f in
           match Unix.stat path with
           | exception Unix.Unix_error _ -> None
           | st -> Some (path, st.Unix.st_mtime, st.Unix.st_size))
  in
  let scanned = List.length stats in
  let evicted = ref 0 and corrupt = ref 0 and freed = ref 0 in
  let evict (path, _, size) =
    match Sys.remove path with
    | () ->
        incr evicted;
        freed := !freed + size;
        Telemetry.Metric.incr evicted_c
    | exception Sys_error _ -> ()
  in
  let damaged, sound =
    List.partition (fun (path, _, _) -> not (entry_ok path)) stats
  in
  corrupt := List.length damaged;
  List.iter evict damaged;
  let expired, fresh =
    match max_age_days with
    | None -> ([], sound)
    | Some days ->
        List.partition
          (fun (_, mtime, _) -> now -. mtime > days *. 86_400.)
          sound
  in
  List.iter evict expired;
  (* Size budget applies to what survived: evict oldest-first until the
     remaining entries fit. *)
  let kept =
    match max_bytes with
    | None -> fresh
    | Some budget ->
        let oldest_first =
          List.sort (fun (_, a, _) (_, b, _) -> compare a b) fresh
        in
        let total =
          List.fold_left (fun acc (_, _, size) -> acc + size) 0 oldest_first
        in
        let rec trim total = function
          | entry :: rest when total > budget ->
              let _, _, size = entry in
              evict entry;
              trim (total - size) rest
          | rest -> rest
        in
        trim total oldest_first
  in
  {
    scanned;
    evicted = !evicted;
    corrupt = !corrupt;
    bytes_freed = !freed;
    bytes_kept = List.fold_left (fun acc (_, _, size) -> acc + size) 0 kept;
  }
