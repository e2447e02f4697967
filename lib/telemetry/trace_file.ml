exception Corrupt of string

let magic = "MACTRC01"

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let write path (d : Recorder.dump) =
  let buf = Buffer.create (4096 + (Array.length d.records * 64)) in
  Buffer.add_string buf magic;
  let u64 v = Buffer.add_int64_le buf (Int64.of_int v) in
  u64 (Array.length d.names);
  u64 (Array.length d.records);
  u64 d.dropped;
  Array.iter
    (fun name ->
      u64 (String.length name);
      Buffer.add_string buf name)
    d.names;
  Array.iter
    (fun (r : Recorder.record) ->
      u64 r.ts;
      u64 r.domain;
      u64 r.kind;
      u64 r.name;
      u64 r.span;
      u64 r.parent;
      u64 r.a;
      u64 r.b)
    d.records;
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Buffer.output_buffer oc buf);
  Sys.rename tmp path

let read path : Recorder.dump =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length s in
  let pos = ref 0 in
  let need n what =
    if len - !pos < n then
      corrupt "truncated trace: wanted %d bytes for %s, had %d" n what
        (len - !pos)
  in
  need 8 "magic";
  if String.sub s 0 8 <> magic then corrupt "bad magic (not a trace file)";
  pos := 8;
  (* Range checks run on the raw 64 bits: [Int64.to_int] drops bit 63,
     which would wrap an out-of-range field into range. *)
  let raw what =
    need 8 what;
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    v
  in
  let i64 what =
    let v = raw what in
    let i = Int64.to_int v in
    if not (Int64.equal (Int64.of_int i) v) then
      corrupt "%s %Ld does not fit an int" what v;
    i
  in
  let u64 what =
    let v = raw what in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
    then corrupt "%s %Lu out of range" what v;
    Int64.to_int v
  in
  let n_names = u64 "name count" in
  let n_records = u64 "record count" in
  let dropped = u64 "dropped count" in
  if n_names > len || n_records > len / 64 then
    corrupt "implausible counts (%d names, %d records) for a %d-byte file"
      n_names n_records len;
  let names = Array.make n_names "" in
  for i = 0 to n_names - 1 do
    let l = u64 "name length" in
    need l "name bytes";
    names.(i) <- String.sub s !pos l;
    pos := !pos + l
  done;
  let records =
    Array.make n_records
      ({ ts = 0; domain = 0; kind = 0; name = 0; span = 0; parent = 0; a = 0; b = 0 }
        : Recorder.record)
  in
  for i = 0 to n_records - 1 do
    let ts = u64 "record" in
    let domain = u64 "record" in
    let kind = u64 "record" in
    let name = u64 "record" in
    let span = u64 "record" in
    let parent = u64 "record" in
    let a = i64 "record" in
    let b = i64 "record" in
    if kind > Recorder.kind_instant then corrupt "record %d: unknown kind %d" i kind;
    if name >= n_names then
      corrupt "record %d: name id %d out of range (have %d names)" i name n_names;
    records.(i) <- { ts; domain; kind; name; span; parent; a; b }
  done;
  if !pos <> len then corrupt "%d trailing bytes after last record" (len - !pos);
  { records; names; dropped }
