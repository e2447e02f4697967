module Codec = Codec

exception Locked of string
exception Corrupt = Codec.Corrupt

type t = {
  dir : string;
  lock_path : string;
  lock_fd : Unix.file_descr;
  mutex : Mutex.t;
  index : (string, string) Hashtbl.t;  (* key -> its entry's payload *)
  mutable active : out_channel;
  mutable acked : int;  (* bytes of the active log [put] acknowledged *)
  mutable closed : bool;
  hits : Telemetry.Metric.counter;
  misses : Telemetry.Metric.counter;
  puts : Telemetry.Metric.counter;
  corrupt : Telemetry.Metric.counter;
  compactions : Telemetry.Metric.counter;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Advisory locking is two-layered: [Unix.lockf] keeps a second {e
   process} out, but POSIX record locks are per-process (re-locking from
   the same process silently succeeds), so a process-global registry of
   held paths catches a second opener in the same process too. *)
let held = Hashtbl.create 4
let held_mutex = Mutex.create ()

let canonical dir =
  match Unix.realpath dir with exception Unix.Unix_error _ -> dir | p -> p

let acquire_lock dir =
  let path = Filename.concat dir "LOCK" in
  let key = canonical dir in
  Mutex.lock held_mutex;
  let already = Hashtbl.mem held key in
  if not already then Hashtbl.replace held key ();
  Mutex.unlock held_mutex;
  if already then
    raise
      (Locked
         (Printf.sprintf "store %s is already open in this process" dir));
  let release_registry () =
    Mutex.lock held_mutex;
    Hashtbl.remove held key;
    Mutex.unlock held_mutex
  in
  match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
  | exception e ->
      release_registry ();
      raise e
  | fd -> (
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () ->
          let pid = string_of_int (Unix.getpid ()) ^ "\n" in
          ignore (Unix.ftruncate fd 0);
          ignore (Unix.write_substring fd pid 0 (String.length pid));
          (path, fd)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
          Unix.close fd;
          release_registry ();
          raise
            (Locked
               (Printf.sprintf
                  "store %s is locked by another process (lock file %s)" dir
                  path))
      | exception e ->
          Unix.close fd;
          release_registry ();
          raise e)

let release_lock t =
  Unix.close t.lock_fd;
  Mutex.lock held_mutex;
  Hashtbl.remove held (canonical t.dir);
  Mutex.unlock held_mutex

let segment_prefix = "seg-"
let segment_suffix = ".jsonl"
let active_name = "active.jsonl"
let segment_name gen = Printf.sprintf "%s%06d%s" segment_prefix gen segment_suffix

let segment_gen file =
  let plen = String.length segment_prefix in
  let slen = String.length segment_suffix in
  let n = String.length file in
  if
    n > plen + slen
    && String.sub file 0 plen = segment_prefix
    && String.sub file (n - slen) slen = segment_suffix
  then int_of_string_opt (String.sub file plen (n - plen - slen))
  else None

let segments dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             Option.map (fun g -> (g, f)) (segment_gen f))
      |> List.sort compare

(* Load one store file into the index, up to byte [upto].  The header is
   strict — a file that does not announce itself as a store segment
   raises {!Corrupt} — but entry lines are validated independently: a
   torn final line or a flipped bit drops that entry alone (counted on
   [corrupt]) and every other line survives.  The index keeps each
   entry's payload bytes, not the value they parse to. *)
let load_file ?(upto = max_int) ~corrupt index path =
  match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (match input_line ic with
          | exception End_of_file ->
              raise (Codec.Corrupt (path ^ ": empty store file"))
          | line -> Codec.check_header line);
          try
            while pos_in ic < upto do
              let line = input_line ic in
              if String.trim line <> "" then
                match Codec.verify line with
                | Some (key, payload) -> Hashtbl.replace index key payload
                | None -> Telemetry.Metric.incr corrupt
            done
          with End_of_file -> ())

(* The offset just past the last newline among the first [size] bytes of
   [ic], or 0 when there is none. *)
let complete_length ic size =
  let chunk = Bytes.create 4096 in
  let rec back stop =
    if stop = 0 then 0
    else
      let start = max 0 (stop - Bytes.length chunk) in
      seek_in ic start;
      really_input ic chunk 0 (stop - start);
      match Bytes.rindex_from_opt chunk (stop - start - 1) '\n' with
      | Some i -> start + i + 1
      | None -> back start
  in
  back size

(* Load the active log and cut it back to just after its last newline.
   A put returns only once its newline is flushed, so the bytes after it
   were never acknowledged: they are counted as one damaged entry and
   removed, and the next append starts a line of its own.  A log that
   holds no newline and whose bytes are a prefix of the header (none at
   all, or a header torn while {!open_active} wrote it) never took a put:
   it is emptied, and {!open_active} writes the header again.  Any other
   first line must be a valid header, and a file that fails that check
   is left as it is. *)
let load_active ~corrupt index path =
  match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
      let size, complete, torn_header =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let size = in_channel_length ic in
            let complete = complete_length ic size in
            let torn_header =
              complete = 0
              && size <= String.length Codec.header
              &&
              (seek_in ic 0;
               String.starts_with
                 ~prefix:(really_input_string ic size)
                 Codec.header)
            in
            (size, complete, torn_header))
      in
      if not torn_header then begin
        load_file ~upto:complete ~corrupt index path;
        if complete < size then Telemetry.Metric.incr corrupt
      end;
      if complete < size then Unix.truncate path complete

(* The append channel and the log's length once it is open.  An empty
   log gets its header first. *)
let open_active dir =
  let path = Filename.concat dir active_name in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if out_channel_length oc = 0 then begin
    output_string oc Codec.header;
    output_char oc '\n';
    flush oc
  end;
  (oc, out_channel_length oc)

let open_dir ?(telemetry = Telemetry.Registry.default) dir =
  mkdir_p dir;
  let lock_path, lock_fd = acquire_lock dir in
  let corrupt = Telemetry.Registry.counter telemetry "store.corrupt_entries" in
  let index = Hashtbl.create 256 in
  let finish_open () =
    List.iter
      (fun (_, file) -> load_file ~corrupt index (Filename.concat dir file))
      (segments dir);
    load_active ~corrupt index (Filename.concat dir active_name);
    let active, acked = open_active dir in
    {
      dir;
      lock_path;
      lock_fd;
      mutex = Mutex.create ();
      index;
      active;
      acked;
      closed = false;
      hits = Telemetry.Registry.counter telemetry "store.hits";
      misses = Telemetry.Registry.counter telemetry "store.misses";
      puts = Telemetry.Registry.counter telemetry "store.puts";
      corrupt;
      compactions = Telemetry.Registry.counter telemetry "store.compactions";
    }
  in
  match finish_open () with
  | t -> t
  | exception e ->
      (* Corrupt header (or any load failure): do not leave the lock
         held by a store that never opened. *)
      Unix.close lock_fd;
      Mutex.lock held_mutex;
      Hashtbl.remove held (canonical dir);
      Mutex.unlock held_mutex;
      raise e


let ensure_open t what =
  if t.closed then invalid_arg (Printf.sprintf "Store.%s: store is closed" what)

(* The payload parses outside the lock: it was verified when it was
   loaded, or rendered by [put]. *)
let find t ~key =
  Mutex.lock t.mutex;
  let found =
    if t.closed then None else Hashtbl.find_opt t.index key
  in
  Mutex.unlock t.mutex;
  match found with
  | Some payload ->
      Telemetry.Metric.incr t.hits;
      Some (Codec.value payload)
  | None ->
      Telemetry.Metric.incr t.misses;
      None

(* One entry line, written piecewise: digest, colon, payload, newline. *)
let output_entry oc ~digest payload =
  output_string oc digest;
  output_char oc ':';
  output_string oc payload;
  output_char oc '\n'

let put t ~key value =
  let payload = Codec.payload ~key value in
  let digest = Codec.digest payload in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      ensure_open t "put";
      (* Index only what reached the file.  A write or flush that raises
         leaves the entry unserved, and the log holding exactly the
         acknowledged puts: the channel, whose buffer a later flush or
         [close] would write, is closed; the file is cut back to its
         acknowledged length, which removes whatever part of the line
         reached it; and a fresh descriptor takes over. *)
      (try
         output_entry t.active ~digest payload;
         flush t.active
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         close_out_noerr t.active;
         Unix.truncate (Filename.concat t.dir active_name) t.acked;
         let active, acked = open_active t.dir in
         t.active <- active;
         t.acked <- acked;
         Printexc.raise_with_backtrace e bt);
      t.acked <- t.acked + String.length digest + String.length payload + 2;
      Hashtbl.replace t.index key payload;
      Telemetry.Metric.incr t.puts)

let entries t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.index in
  Mutex.unlock t.mutex;
  n

let iter t f =
  Mutex.lock t.mutex;
  let snapshot = Hashtbl.fold (fun k _ acc -> k :: acc) t.index [] in
  Mutex.unlock t.mutex;
  List.iter f snapshot

(* Fold every live entry into one fresh sealed segment (written next to
   its final name and renamed, so a crash mid-compaction leaves the old
   files untouched), then drop the superseded segments and restart the
   append log.  Entries are written from the payloads the index holds,
   byte for byte as their puts wrote them.  Disk after compaction holds
   exactly one copy of each entry. *)
let compact t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      ensure_open t "compact";
      let old_segments = segments t.dir in
      let next_gen =
        match List.rev old_segments with (g, _) :: _ -> g + 1 | [] -> 0
      in
      Prelude.Util.write_atomically
        (Filename.concat t.dir (segment_name next_gen))
        (fun oc ->
          output_string oc Codec.header;
          output_char oc '\n';
          Hashtbl.iter
            (fun _ payload ->
              output_entry oc ~digest:(Codec.digest payload) payload)
            t.index);
      List.iter
        (fun (_, file) ->
          try Sys.remove (Filename.concat t.dir file)
          with Sys_error _ -> ())
        old_segments;
      close_out_noerr t.active;
      (try Sys.remove (Filename.concat t.dir active_name)
       with Sys_error _ -> ());
      let active, acked = open_active t.dir in
      t.active <- active;
      t.acked <- acked;
      Telemetry.Metric.incr t.compactions)

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        close_out_noerr t.active;
        release_lock t
      end)

let with_store ?telemetry dir f =
  let t = open_dir ?telemetry dir in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
