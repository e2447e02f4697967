type record = {
  ts : int;
  domain : int;
  kind : int;
  name : int;
  span : int;
  parent : int;
  a : int;
  b : int;
}

type dump = { records : record array; names : string array; dropped : int }

let kind_begin = 0
let kind_end = 1
let kind_instant = 2

(* Records are [stride] consecutive ints in the ring's flat buffer, in
   the field order of {!record}. *)
let stride = 8

(* Open-span stack depth per domain; instrumented nesting is a handful
   deep, so overflow (silently not pushed) is a non-event. *)
let max_open = 512

type ring = {
  uid : int;  (** drain tie-break: unique even when domains reuse rings *)
  buf : int array;
  cap : int;  (** records; a power of two *)
  mutable domain : int;
  mutable head : int;  (** records written since the last reset *)
  mutable last_ts : int;
  stack : int array;
  mutable sp : int;
}

type shared = {
  lock : Mutex.t;
      (* Guards ring/parked lists, the name table and capacity; never
         taken on the record path. *)
  clock : unit -> int;
  enabled : bool Atomic.t;
  detail_on : bool Atomic.t;
  next_span : int Atomic.t;
  next_uid : int Atomic.t;
  mutable ring_capacity : int;
  mutable rings : ring list;
  mutable parked : ring list;
  names : (string, int) Hashtbl.t;
  mutable names_rev : string list;
  mutable n_names : int;
}

type t = { s : shared; key : ring Domain.DLS.key }

let default_capacity = 1 lsl 15

let rec pow2 k n = if k >= n then k else pow2 (k * 2) n

let default_clock () = int_of_float (Unix.gettimeofday () *. 1e9)

let fresh_ring s =
  {
    uid = Atomic.fetch_and_add s.next_uid 1;
    buf = Array.make (s.ring_capacity * stride) 0;
    cap = s.ring_capacity;
    domain = 0;
    head = 0;
    last_ts = 0;
    stack = Array.make max_open 0;
    sp = 0;
  }

(* First record on a domain: adopt a parked ring of the right capacity,
   or allocate a fresh one.  Parking on domain exit keeps the ring's
   records drainable and bounds memory at one ring per concurrently
   live domain, however many short-lived pool workers come and go. *)
let obtain s =
  let me = (Domain.self () :> int) in
  Mutex.lock s.lock;
  let rec take acc = function
    | [] -> None
    | r :: rest when r.cap = s.ring_capacity ->
        s.parked <- List.rev_append acc rest;
        Some r
    | r :: rest -> take (r :: acc) rest
  in
  let r =
    match take [] s.parked with
    | Some r ->
        r.sp <- 0;
        r
    | None ->
        let r = fresh_ring s in
        s.rings <- r :: s.rings;
        r
  in
  r.domain <- me;
  Mutex.unlock s.lock;
  Domain.at_exit (fun () ->
      Mutex.lock s.lock;
      s.parked <- r :: s.parked;
      Mutex.unlock s.lock);
  r

let create ?(capacity = default_capacity) ?(clock = default_clock) () =
  if capacity < 16 then invalid_arg "Recorder.create: capacity < 16";
  let s =
    {
      lock = Mutex.create ();
      clock;
      enabled = Atomic.make false;
      detail_on = Atomic.make false;
      next_span = Atomic.make 1;
      next_uid = Atomic.make 0;
      ring_capacity = pow2 16 capacity;
      rings = [];
      parked = [];
      names = Hashtbl.create 64;
      names_rev = [];
      n_names = 0;
    }
  in
  { s; key = Domain.DLS.new_key (fun () -> obtain s) }

let default = create ()

let set_enabled t v = Atomic.set t.s.enabled v
let enabled t = Atomic.get t.s.enabled
let set_detail t v = Atomic.set t.s.detail_on v
let detail t = Atomic.get t.s.detail_on && Atomic.get t.s.enabled

let set_capacity t c =
  if c < 16 then invalid_arg "Recorder.set_capacity: capacity < 16";
  Mutex.lock t.s.lock;
  t.s.ring_capacity <- pow2 16 c;
  Mutex.unlock t.s.lock

let intern t name =
  let s = t.s in
  Mutex.lock s.lock;
  let id =
    match Hashtbl.find_opt s.names name with
    | Some id -> id
    | None ->
        let id = s.n_names in
        Hashtbl.add s.names name id;
        s.names_rev <- name :: s.names_rev;
        s.n_names <- id + 1;
        id
  in
  Mutex.unlock s.lock;
  id

(* The hot path: one clock read (clamped strictly forward so per-ring
   order is total), eight stores, one head bump.  No allocation. *)
let write s r kind name span parent a b =
  let c = s.clock () in
  let ts = if c <= r.last_ts then r.last_ts + 1 else c in
  r.last_ts <- ts;
  let i = (r.head land (r.cap - 1)) * stride in
  let buf = r.buf in
  buf.(i) <- ts;
  buf.(i + 1) <- r.domain;
  buf.(i + 2) <- kind;
  buf.(i + 3) <- name;
  buf.(i + 4) <- span;
  buf.(i + 5) <- parent;
  buf.(i + 6) <- a;
  buf.(i + 7) <- b;
  r.head <- r.head + 1

let instant t name a b =
  if Atomic.get t.s.enabled then begin
    let r = Domain.DLS.get t.key in
    let span = if r.sp > 0 then r.stack.(r.sp - 1) else 0 in
    write t.s r kind_instant name span 0 a b
  end

let begin_span t name a b =
  if not (Atomic.get t.s.enabled) then 0
  else begin
    let r = Domain.DLS.get t.key in
    let parent = if r.sp > 0 then r.stack.(r.sp - 1) else 0 in
    let id = Atomic.fetch_and_add t.s.next_span 1 in
    if r.sp < max_open then begin
      r.stack.(r.sp) <- id;
      r.sp <- r.sp + 1
    end;
    write t.s r kind_begin name id parent a b;
    id
  end

let end_span t name id =
  if id <> 0 then begin
    let r = Domain.DLS.get t.key in
    (* Normally [id] is on top; an exception that unwound nested spans
       whose end_span never ran leaves them above — pop those too. *)
    let rec find i = if i < 0 then -1 else if r.stack.(i) = id then i else find (i - 1) in
    let at = find (r.sp - 1) in
    if at >= 0 then r.sp <- at;
    let parent = if r.sp > 0 then r.stack.(r.sp - 1) else 0 in
    if Atomic.get t.s.enabled then write t.s r kind_end name id parent 0 0
  end

let with_span t name a b f =
  let id = begin_span t name a b in
  if id = 0 then f ()
  else
    match f () with
    | v ->
        end_span t name id;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        end_span t name id;
        Printexc.raise_with_backtrace e bt

let current_span t =
  if not (Atomic.get t.s.enabled) then 0
  else
    let r = Domain.DLS.get t.key in
    if r.sp > 0 then r.stack.(r.sp - 1) else 0

type stats = { rings : int; live : int; written : int; dropped : int }

let stats t =
  Mutex.lock t.s.lock;
  let st =
    List.fold_left
      (fun acc r ->
        {
          rings = acc.rings + 1;
          live = acc.live + Stdlib.min r.head r.cap;
          written = acc.written + r.head;
          dropped = acc.dropped + Stdlib.max 0 (r.head - r.cap);
        })
      { rings = 0; live = 0; written = 0; dropped = 0 }
      t.s.rings
  in
  Mutex.unlock t.s.lock;
  st

let drain ?(registry = Registry.default) ?(reset = true) t =
  let s = t.s in
  Mutex.lock s.lock;
  let rings = s.rings in
  let total =
    List.fold_left (fun acc r -> acc + Stdlib.min r.head r.cap) 0 rings
  in
  let dropped =
    List.fold_left (fun acc r -> acc + Stdlib.max 0 (r.head - r.cap)) 0 rings
  in
  let nothing =
    { ts = 0; domain = 0; kind = 0; name = 0; span = 0; parent = 0; a = 0; b = 0 }
  in
  let out = Array.make (Stdlib.max 1 total) nothing in
  (* Ring uid per merged record, for a total sort order: timestamps are
     strictly increasing within a ring but can collide across rings. *)
  let uids = Array.make (Stdlib.max 1 total) 0 in
  let pos = ref 0 in
  List.iter
    (fun r ->
      let live = Stdlib.min r.head r.cap in
      for k = r.head - live to r.head - 1 do
        let i = (k land (r.cap - 1)) * stride in
        let buf = r.buf in
        out.(!pos) <-
          {
            ts = buf.(i);
            domain = buf.(i + 1);
            kind = buf.(i + 2);
            name = buf.(i + 3);
            span = buf.(i + 4);
            parent = buf.(i + 5);
            a = buf.(i + 6);
            b = buf.(i + 7);
          };
        uids.(!pos) <- r.uid;
        incr pos
      done;
      if reset then r.head <- 0)
    rings;
  let names = Array.of_list (List.rev s.names_rev) in
  Mutex.unlock s.lock;
  let order = Array.init total Fun.id in
  Array.sort
    (fun x y ->
      let c = compare out.(x).ts out.(y).ts in
      if c <> 0 then c else compare uids.(x) uids.(y))
    order;
  let records = Array.map (fun i -> out.(i)) (Array.sub order 0 total) in
  if dropped > 0 then
    Metric.add
      (Registry.counter registry "telemetry.trace.dropped_records")
      dropped;
  { records; names; dropped }
