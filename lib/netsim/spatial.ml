type config = {
  params : Dcf.Params.t;
  adjacency : int list array;
  cws : int array;
  duration : float;
  seed : int;
}

type node_stats = {
  attempts : int;
  successes : int;
  drops : int;
  local_collisions : int;
  hidden_failures : int;
  payoff_rate : float;
  throughput : float;
  p_hn_hat : float;
}

type airtime = {
  busy_fraction : float;
  idle_fraction : float;
  success_fraction : float;
  collision_fraction : float;
  overlap_fraction : float;
}

type result = {
  time : float;
  per_node : node_stats array;
  welfare_rate : float;
  delivered : int;
  delivered_late : int;
  airtime : airtime;
}

type tx = {
  src : int;
  mutable dest : int;
  mutable vuln_end : int;    (** end of the vulnerable window, in slots *)
  mutable resolved : bool;
  mutable finish : int;      (** src airtime ends (set at resolution) *)
  mutable corrupted_local : bool;
  mutable corrupted_hidden : bool;
}

type node = {
  (* Event-core scheduling state, first in the record because the
     carrier-sense freeze and unfreeze loops touch nothing else.  A node
     is either UNFROZEN (idle-sensing, [expiry] is the absolute slot its
     backoff ends, a Fire event is in the calendar) or FROZEN ([counter]
     holds the remaining backoff slots, [expiry] = -1).  [audible] counts
     carrier-sense neighbours currently on the air, so idle-sensing is an
     O(1) test. *)
  mutable frozen : bool;
  mutable audible : int;
  mutable expiry : int;
  (* Absolute slot the AIFS defer ends after the last unfreeze (event core
     only).  Backoff slots are only the ones past it: a freeze at [t]
     leaves [expiry − max t defer_end] backoff slots, and the defer
     re-arms in full at the next unfreeze. *)
  mutable defer_end : int;
  mutable counter : int;
  mutable busy_until : int;   (** own transmission occupies the air *)
  mutable nav_until : int;
  can_tx : bool;              (** has at least one neighbour to address *)
  mutable on_air : bool;
  id : int;                   (** internal number: index into [nodes] *)
  cid : int;                  (** the caller's number for the node *)
  window : int;
  neighbors : int array;      (** decode (transmission) range *)
  cs_neighbors : int array;   (** carrier-sense range (superset) *)
  rng : Prelude.Rng.t;
  tx : tx;                    (** reusable record (event core only) *)
  mutable stage : int;
  mutable retries : int;
  mutable defer : int;        (** AIFS slots left before backoff resumes
                                  (reference loop only) *)
  mutable sensing : bool;     (** idle-sensing during the interval that just
                                  ended (reference loop only) *)
  mutable attempts : int;
  mutable successes : int;    (** frames delivered (txop per winning access) *)
  mutable success_accesses : int;  (** winning accesses (conservation) *)
  mutable drops : int;
  mutable local_collisions : int;
  mutable hidden_failures : int;
  mutable in_bag : bool;
}

let slots_of sigma t = Stdlib.max 1 (int_of_float (Float.round (t /. sigma)))

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal_stats (a : node_stats) (b : node_stats) =
  a.attempts = b.attempts && a.successes = b.successes && a.drops = b.drops
  && a.local_collisions = b.local_collisions
  && a.hidden_failures = b.hidden_failures
  && feq a.payoff_rate b.payoff_rate
  && feq a.throughput b.throughput
  && feq a.p_hn_hat b.p_hn_hat

let equal_result (a : result) (b : result) =
  feq a.time b.time
  && a.delivered = b.delivered
  && a.delivered_late = b.delivered_late
  && feq a.welfare_rate b.welfare_rate
  && feq a.airtime.busy_fraction b.airtime.busy_fraction
  && feq a.airtime.idle_fraction b.airtime.idle_fraction
  && feq a.airtime.success_fraction b.airtime.success_fraction
  && feq a.airtime.collision_fraction b.airtime.collision_fraction
  && feq a.airtime.overlap_fraction b.airtime.overlap_fraction
  && Array.length a.per_node = Array.length b.per_node
  && Array.for_all2 equal_stats a.per_node b.per_node

(* [Stdlib.min] and [max] are polymorphic: on the hot path they would
   compare through a C call. *)
let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* Event kinds, in intra-slot processing order — exactly the order the
   reference loop's phases imply (resolutions, then channel releases, then
   backoff expiries).  Within a slot the calendar drains events by
   (kind, the caller's node number). *)
let kind_resolve = 0
let kind_busy_release = 1
let kind_nav_release = 2
let kind_fire = 3

(* Flight-recorder names, interned once (intern takes a lock).  The
   default tier records per-transmission outcomes (a = slot, b = node);
   the RTS/CTS handshake and the dense per-calendar-event tier sit behind
   [Recorder.detail]. *)
let recorder = Telemetry.Recorder.default
let nid_tx_start = Telemetry.Recorder.intern recorder "spatial.tx_start"
let nid_success = Telemetry.Recorder.intern recorder "spatial.success"
let nid_collision = Telemetry.Recorder.intern recorder "spatial.collision"
let nid_drop = Telemetry.Recorder.intern recorder "spatial.drop"
let nid_rts = Telemetry.Recorder.intern recorder "spatial.rts"
let nid_cts = Telemetry.Recorder.intern recorder "spatial.cts"
let nid_nav_defer = Telemetry.Recorder.intern recorder "spatial.nav_defer"

let nid_event =
  [|
    Telemetry.Recorder.intern recorder "spatial.ev.resolve";
    Telemetry.Recorder.intern recorder "spatial.ev.busy_release";
    Telemetry.Recorder.intern recorder "spatial.ev.nav_release";
    Telemetry.Recorder.intern recorder "spatial.ev.fire";
  |]

type driver = Reference | Event_core

(* Where neighbourhoods come from.  [Lists] is the historical adjacency
   interface (dense membership sets, full symmetry validation); [Geo] is
   the unit-disk model resolved through a {!Mobility.Grid} index, whose
   neighbour sets are identical to [Topology.adjacency ~range] of the
   same positions — which is what makes {!run_grid} bit-match {!run}. *)
type neighborhoods =
  | Lists of {
      adjacency : int list array;
      cs_adjacency : int list array option;
    }
  | Geo of {
      positions : Mobility.Geom.point array;
      range : float;
      cs_range : float;
    }

(* [flight] gates the flight recorder for this run: the differential
   shadow run passes [false] so primary and shadow do not double-record
   the same workload into the process-wide rings. *)
let simulate ~driver ~telemetry ~retry_limit ~flight ~strategies
    ~rng_of ~hoods ~(params : Dcf.Params.t) ~cws ~duration ~seed =
  if retry_limit < 0 then invalid_arg "Spatial.run: retry_limit must be >= 0";
  let validate_scalars n =
    if n = 0 then invalid_arg "Spatial.run: empty network";
    if Array.length cws <> n then
      invalid_arg "Spatial.run: cws length mismatch";
    if not (duration > 0.) then
      invalid_arg "Spatial.run: duration must be positive";
    Array.iter
      (fun w -> if w < 1 then invalid_arg "Spatial.run: window must be >= 1")
      cws
  in
  (* Nodes run under internal numbers: [order.(id)] is node [id]'s caller
     number and [rank] the inverse.  Neighbour arrays hold internal
     numbers, and [is_neighbor] and [in_cs] take them. *)
  let n, neighbors_a, cs_neighbors_a, is_neighbor, in_cs, order, rank, geo =
    match hoods with
    | Lists { adjacency; cs_adjacency } ->
        let n = Array.length adjacency in
        let cs_adjacency = Option.value cs_adjacency ~default:adjacency in
        if Array.length cs_adjacency <> n then
          invalid_arg "Spatial.run: cs_adjacency length mismatch";
        validate_scalars n;
        Array.iteri
          (fun i l ->
            List.iter
              (fun j ->
                if j < 0 || j >= n || j = i then
                  invalid_arg "Spatial.run: bad neighbour";
                if not (List.mem i adjacency.(j)) then
                  invalid_arg "Spatial.run: adjacency not symmetric")
              l)
          adjacency;
        Array.iteri
          (fun i l ->
            List.iter
              (fun j ->
                if j < 0 || j >= n || j = i then
                  invalid_arg "Spatial.run: bad carrier-sense neighbour";
                if not (List.mem i cs_adjacency.(j)) then
                  invalid_arg "Spatial.run: cs_adjacency not symmetric")
              l;
            List.iter
              (fun j ->
                if not (List.mem j l) then
                  invalid_arg "Spatial.run: cs_adjacency must contain adjacency")
              adjacency.(i))
          cs_adjacency;
        let dense l =
          let set = Array.make n false in
          List.iter (fun j -> set.(j) <- true) l;
          set
        in
        let neighbor_sets = Array.map dense adjacency in
        let cs_sets = Array.map dense cs_adjacency in
        let ids = Array.init n Fun.id in
        ( n,
          Array.map Array.of_list adjacency,
          Array.map Array.of_list cs_adjacency,
          (fun i j -> neighbor_sets.(i).(j)),
          (fun i j -> cs_sets.(i).(j)),
          ids,
          ids,
          None )
    | Geo { positions; range; cs_range } ->
        let n = Array.length positions in
        validate_scalars n;
        (* Written so NaN fails them too. *)
        if not (range > 0. && Float.is_finite range) then
          invalid_arg "Spatial.run_grid: range must be positive and finite";
        if not (cs_range >= range && Float.is_finite cs_range) then
          invalid_arg "Spatial.run_grid: cs_range must be finite and >= range";
        let g = Mobility.Grid.create ~cell:range positions in
        (* Internal numbers follow the grid's row-major cell order, so a
           node's neighbours sit near it in [nodes] and every gather lists
           its candidates in ascending internal number. *)
        let order = Mobility.Grid.cell_order g in
        let rank = Array.make n 0 in
        Array.iteri (fun id c -> rank.(c) <- id) order;
        (* The exact unit-disk predicate of {!Mobility.Geom.within}, on
           unboxed coordinates. *)
        let xs = Array.map (fun c -> positions.(c).Mobility.Geom.x) order in
        let ys = Array.map (fun c -> positions.(c).Mobility.Geom.y) order in
        let range2 = range *. range and cs_range2 = cs_range *. cs_range in
        let within r2 i j =
          let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
          (dx *. dx) +. (dy *. dy) <= r2
        in
        (* Carrier-sense neighbours come out of the gather already sorted.
           The decode neighbours, the ones among them within [range], are
           put in caller order: [Rng.pick] draws a destination by its
           index there, and RTS/CTS silencing records its NAV instants in
           that order. *)
        let neighbors = Array.make n [||] in
        let cs_neighbors = Array.make n [||] in
        let buf = Array.make n 0 and decode = Array.make n 0 in
        for i = 0 to n - 1 do
          let k = Mobility.Grid.gather g ~radius:cs_range order.(i) buf in
          let m = ref 0 and d = ref 0 in
          (* [within], inlined: a call would box its float argument. *)
          let x = xs.(i) and y = ys.(i) in
          for q = 0 to k - 1 do
            let j = rank.(buf.(q)) in
            let dx = x -. xs.(j) and dy = y -. ys.(j) in
            let d2 = (dx *. dx) +. (dy *. dy) in
            if j <> i && d2 <= cs_range2 then begin
              buf.(!m) <- j;
              incr m;
              if d2 <= range2 then begin
                decode.(!d) <- order.(j);
                incr d
              end
            end
          done;
          cs_neighbors.(i) <- Array.sub buf 0 !m;
          Prelude.Util.sort_ints decode !d;
          let dn = Array.sub decode 0 !d in
          for q = 0 to !d - 1 do
            dn.(q) <- rank.(dn.(q))
          done;
          neighbors.(i) <- dn
        done;
        ( n,
          neighbors,
          cs_neighbors,
          (fun i j -> i <> j && within range2 i j),
          (fun i j -> i <> j && within cs_range2 i j),
          order,
          rank,
          Some g )
  in
  let strategies =
    match strategies with
    | None -> Array.map Dcf.Strategy_space.of_cw cws
    | Some ss ->
        if Array.length ss <> n then
          invalid_arg "Spatial.run: strategies length mismatch";
        Array.iteri
          (fun i (s : Dcf.Strategy_space.t) ->
            (match Dcf.Strategy_space.validate s with
            | Ok () -> ()
            | Error e -> invalid_arg ("Spatial.run: " ^ e));
            if s.cw <> cws.(i) then
              invalid_arg "Spatial.run: strategies disagree with cws")
          ss;
        ss
  in
  let m = params.max_backoff_stage in
  let timing = Dcf.Timing.of_params params in
  let sigma = params.sigma in
  (* Per-node frame timings: with degenerate strategies the passthrough in
     {!Dcf.Strategy_space.times} yields the base timings, so every slot
     count below equals the pre-strategy scalar — the degenerate subspace
     runs the exact CW-only slot sequence. *)
  let times_a =
    Array.map (fun s -> Dcf.Strategy_space.times params ~base:timing s)
      strategies
  in
  let ts_slots_a =
    Array.map (fun (tm : Dcf.Strategy_space.times) -> slots_of sigma tm.ts)
      times_a
  in
  let tc_slots_a =
    Array.map (fun (tm : Dcf.Strategy_space.times) -> slots_of sigma tm.tc)
      times_a
  in
  let vuln_slots_a =
    match params.mode with
    | Dcf.Params.Basic ->
        Array.map
          (fun (tm : Dcf.Strategy_space.times) ->
            slots_of sigma (timing.header +. tm.payload))
          times_a
    | Dcf.Params.Rts_cts ->
        let v =
          slots_of sigma
            (float_of_int (params.rts_bits + params.phy_header_bits)
            /. params.bit_rate)
        in
        Array.make n v
  in
  let aifs_a =
    Array.map (fun (s : Dcf.Strategy_space.t) -> s.aifs) strategies
  in
  let has_aifs = Array.exists (fun a -> a > 0) aifs_a in
  let txop_a =
    Array.map (fun (s : Dcf.Strategy_space.t) -> s.txop_frames) strategies
  in
  (* Slots are counted in ints; past 2^52 slots (or at an infinite
     duration) the float horizon no longer converts exactly. *)
  let horizon_f = Float.ceil (duration /. sigma) in
  if not (horizon_f < 0x1p52) then
    invalid_arg "Spatial.run: duration too long for the slot clock";
  let horizon = int_of_float horizon_f in
  (* Streams are split, and first drawn, in caller order. *)
  let master = Prelude.Rng.create seed in
  let rngs =
    Array.init n (fun c ->
        match rng_of with None -> Prelude.Rng.split master | Some f -> f c)
  in
  let nodes =
    Array.init n (fun i ->
        let c = order.(i) in
        {
          frozen = false;
          audible = 0;
          expiry = -1;
          defer_end = 0;
          counter = 0;
          busy_until = 0;
          nav_until = 0;
          can_tx = Array.length neighbors_a.(i) > 0;
          on_air = false;
          id = i;
          cid = c;
          window = cws.(c);
          neighbors = neighbors_a.(i);
          cs_neighbors = cs_neighbors_a.(i);
          rng = rngs.(c);
          tx =
            {
              src = i;
              dest = i;
              vuln_end = 0;
              resolved = true;
              finish = 0;
              corrupted_local = false;
              corrupted_hidden = false;
            };
          stage = 0;
          retries = 0;
          defer = aifs_a.(c);
          sensing = true;
          attempts = 0;
          successes = 0;
          success_accesses = 0;
          drops = 0;
          local_collisions = 0;
          hidden_failures = 0;
          in_bag = false;
        })
  in
  Array.iter
    (fun i ->
      let nd = nodes.(i) in
      nd.counter <- Prelude.Rng.int nd.rng nd.window)
    rank;
  let delivered = ref 0 in
  let delivered_late = ref 0 in
  (* Airtime accounting, all in slots and all clipped at the horizon.
     [success]/[collision] aggregate per-transmission airtime (they can
     exceed the horizon under spatial reuse); [busy] is the union of
     transmission intervals, tracked incrementally — in-horizon events
     arrive in time order, so extending a coverage watermark is exact. *)
  let success_tx_slots = ref 0 in
  let collision_tx_slots = ref 0 in
  let busy_slots = ref 0 in
  let covered_until = ref 0 in
  let clip t = if t > horizon then horizon else t in
  let cover a b =
    let from = imax a !covered_until in
    if b > from then begin
      busy_slots := !busy_slots + (b - from);
      covered_until := b
    end
  in
  let backoff_reset node =
    node.counter <- Prelude.Rng.int node.rng (node.window lsl node.stage)
  in
  (* One flag read per run, not per event: the recorder can only be
     toggled between runs, and a single captured bool keeps the hot loop
     at one predictable branch per site. *)
  let rec_on = flight && Telemetry.Recorder.enabled recorder in
  let rec_detail = flight && Telemetry.Recorder.detail recorder in
  (* Driver-specific behaviour, injected so that the physics below is
     shared verbatim between the reference loop and the event core — the
     two schedulers can then only disagree on *when* they call into it,
     which is exactly what the differential mode checks. *)
  let raise_busy : (int -> node -> int -> unit) ref =
    ref (fun _ _ _ -> ())
  in
  let raise_nav : (int -> node -> int -> unit) ref = ref (fun _ _ _ -> ()) in
  let obtain : (node -> int -> int -> tx) ref =
    ref (fun nd _ _ -> nd.tx)
  in
  let register : (node -> tx -> unit) ref = ref (fun _ _ -> ()) in
  (* [mark_airborne node now tx] offers every frame that may still be on
     the air to [mark]. *)
  let mark_airborne : (node -> int -> tx -> unit) ref =
    ref (fun _ _ _ -> ())
  in
  (* Eager corruption marking of [node]'s new frame [tx] against one
     [other] frame.  Marking only ORs flags, so drivers may offer frames in
     any order, and offering one that is no longer on the air is a no-op. *)
  let mark now node tx other =
    if other != tx && nodes.(other.src).busy_until > now then begin
      (* [other]'s frame is still on the air. *)
      if other.src <> node.id && is_neighbor tx.dest other.src then begin
        if in_cs node.id other.src then tx.corrupted_local <- true
        else tx.corrupted_hidden <- true
      end;
      (* Symmetrically, the new frame may corrupt [other] if other is still
         in its vulnerable window and we are audible at its receiver — or
         if we ARE its receiver and just went deaf by transmitting
         ourselves (same-slot start, so other's dest-busy check could not
         see it). *)
      if (not other.resolved) && now < other.vuln_end then begin
        if other.dest = node.id then other.corrupted_local <- true
        else if is_neighbor other.dest node.id then
          if in_cs other.src node.id then other.corrupted_local <- true
          else other.corrupted_hidden <- true
      end
    end
  in
  (* The CTS (and the data exchange) silences a neighbourhood until the
     ACK completes. *)
  let silence now ~src ~finish neighbors =
    for k = 0 to Array.length neighbors - 1 do
      let j = neighbors.(k) in
      if j <> src then begin
        let nd = nodes.(j) in
        if finish > nd.nav_until then begin
          !raise_nav now nd finish;
          if rec_detail then
            Telemetry.Recorder.instant recorder nid_nav_defer finish nd.cid
        end
      end
    done
  in
  let resolve now tx =
    tx.resolved <- true;
    let src = nodes.(tx.src) in
    let c = src.cid in
    let started = now - vuln_slots_a.(c) in
    let corrupted = tx.corrupted_local || tx.corrupted_hidden in
    if corrupted then begin
      let finish = started + tc_slots_a.(c) in
      !raise_busy now src finish;
      tx.finish <- finish;
      collision_tx_slots :=
        !collision_tx_slots + (clip finish - clip started);
      cover (clip now) (clip finish);
      if tx.corrupted_local then
        src.local_collisions <- src.local_collisions + 1
      else src.hidden_failures <- src.hidden_failures + 1;
      if rec_on then
        Telemetry.Recorder.instant recorder nid_collision now c;
      src.retries <- src.retries + 1;
      if src.retries > retry_limit then begin
        src.drops <- src.drops + 1;
        src.retries <- 0;
        src.stage <- 0;
        if rec_on then Telemetry.Recorder.instant recorder nid_drop now c
      end
      else src.stage <- imin (src.stage + 1) m
    end
    else begin
      let finish = started + ts_slots_a.(c) in
      !raise_busy now src finish;
      tx.finish <- finish;
      src.successes <- src.successes + txop_a.(c);
      src.success_accesses <- src.success_accesses + 1;
      if now < horizon then delivered := !delivered + txop_a.(c)
      else delivered_late := !delivered_late + txop_a.(c);
      success_tx_slots := !success_tx_slots + (clip finish - clip started);
      cover (clip now) (clip finish);
      if rec_on then Telemetry.Recorder.instant recorder nid_success now c;
      src.stage <- 0;
      src.retries <- 0;
      match params.mode with
      | Dcf.Params.Basic -> ()
      | Dcf.Params.Rts_cts ->
          let dest = nodes.(tx.dest) in
          if rec_detail then
            Telemetry.Recorder.instant recorder nid_cts now dest.cid;
          !raise_busy now dest finish;
          silence now ~src:tx.src ~finish dest.neighbors;
          silence now ~src:tx.src ~finish src.neighbors
    end;
    backoff_reset src
  in
  let start_transmission now node =
    if not node.can_tx then
      (* Isolated node: nothing to send to; stay silent. *)
      backoff_reset node
    else begin
      let dest = Prelude.Rng.pick node.rng node.neighbors in
      node.attempts <- node.attempts + 1;
      if rec_on then
        Telemetry.Recorder.instant recorder nid_tx_start now node.cid;
      !raise_busy now node
        (now + vuln_slots_a.(node.cid)) (* extended at resolution *);
      cover now (clip (now + vuln_slots_a.(node.cid)));
      (match params.mode with
      | Dcf.Params.Basic -> ()
      | Dcf.Params.Rts_cts ->
          if rec_detail then
            Telemetry.Recorder.instant recorder nid_rts now nodes.(dest).cid);
      let tx = !obtain node dest now in
      if nodes.(dest).busy_until > now then
        (* Receiver itself is transmitting and will miss the frame; it is a
           neighbour, so this counts as a local loss. *)
        tx.corrupted_local <- true;
      !mark_airborne node now tx;
      !register node tx
    end
  in
  (match driver with
  | Reference ->
      (* The pre-event-core boundary-scan loop, kept as the differential
         baseline: at every channel-state boundary resolve, launch, and
         tick by scanning nodes and the active list. *)
      let active : tx list ref = ref [] in
      (raise_busy :=
         fun _now nd v -> if v > nd.busy_until then nd.busy_until <- v);
      (raise_nav := fun _now nd v -> nd.nav_until <- v);
      (obtain :=
         fun node dest now ->
           {
             src = node.id;
             dest;
             vuln_end = now + vuln_slots_a.(node.cid);
             resolved = false;
             finish = now + vuln_slots_a.(node.cid);
             corrupted_local = false;
             corrupted_hidden = false;
           });
      (register := fun _node tx -> active := tx :: !active);
      (mark_airborne :=
         fun node now tx -> List.iter (mark now node tx) !active);
      (* A node senses the channel idle when it is not transmitting, has no
         NAV, and no neighbour is transmitting. *)
      let senses_idle now node =
        node.busy_until <= now
        && node.nav_until <= now
        && not
             (Array.exists
                (fun j -> nodes.(j).busy_until > now)
                node.cs_neighbors)
      in
      let now = ref 0 in
      while !now < horizon do
        (* 1. Resolve frames whose vulnerable window closes now; drop frames
           whose airtime has ended. *)
        List.iter
          (fun tx ->
            if (not tx.resolved) && tx.vuln_end <= !now then resolve !now tx)
          !active;
        active := List.filter (fun tx -> tx.finish > !now) !active;
        (* 2a. Pre-launch sensing transitions: a node whose channel just
           went idle re-arms its AIFS defer in full.  The scan costs a
           full senses_idle pass per boundary, so it only runs when some
           node actually defers; on the degenerate subspace (every defer
           0) the starter filter below keeps the cheap short-circuit
           shape of the CW-only loop.
           2b. Launch every node whose defer and counter have reached
           zero, against a single snapshot of the channel state: nodes
           that fire in the same slot cannot sense each other's start, so
           all of them transmit (the synchronised-collision case). *)
        let starters =
          if has_aifs then begin
            Array.iter
              (fun nd ->
                let idle = senses_idle !now nd in
                if idle && not nd.sensing then nd.defer <- aifs_a.(nd.cid);
                nd.sensing <- idle)
              nodes;
            Array.to_list nodes
            |> List.filter (fun nd ->
                   nd.defer = 0 && nd.counter <= 0 && nd.sensing)
          end
          else
            Array.to_list nodes
            |> List.filter (fun nd -> nd.counter <= 0 && senses_idle !now nd)
        in
        List.iter (start_transmission !now) starters;
        (* 3. Between boundaries only the currently idle-sensing nodes
           tick (defer slots first, then backoff). *)
        Array.iter (fun nd -> nd.sensing <- senses_idle !now nd) nodes;
        let counting =
          Array.to_list nodes |> List.filter (fun nd -> nd.sensing)
        in
        (* 4. Jump to the next channel-state boundary. *)
        let next = ref max_int in
        let consider t = if t > !now && t < !next then next := t in
        List.iter
          (fun tx -> if not tx.resolved then consider tx.vuln_end)
          !active;
        Array.iter
          (fun nd ->
            consider nd.busy_until;
            consider nd.nav_until)
          nodes;
        List.iter
          (fun nd -> consider (!now + nd.defer + nd.counter))
          counting;
        let next =
          if !next = max_int then horizon else Stdlib.min !next horizon
        in
        let dt = next - !now in
        List.iter
          (fun nd ->
            let d = Stdlib.min nd.defer dt in
            nd.defer <- nd.defer - d;
            nd.counter <- nd.counter - (dt - d))
          counting;
        now := next
      done;
      (* Frames still in their vulnerable window at the horizon complete
         just after the measurement ends; resolve them so the per-node
         accounting (attempts = successes + collisions) balances.  Their
         airtime past the horizon is clipped away by [clip]. *)
      List.iter
        (fun tx -> if not tx.resolved then resolve tx.vuln_end tx)
        !active
  | Event_core ->
      (* Allocation-free event core: a timing wheel replaces the
         per-boundary node/active scans.  Every event lands between one
         slot and [reach] slots ahead of [now]: a fire at most the longest
         AIFS plus backoff window away, a release or resolution at most
         the longest Ts/Tc/vulnerable window.  Events at or past the
         horizon are dropped, so the horizon caps [reach] too.  A wheel of
         [span] > [reach] slots therefore never holds two different times
         in one slot, and slot [t land mask] is simply "time t". *)
      let longest a = Array.fold_left imax 0 a in
      let reach =
        let backoff =
          longest
            (Array.map
               (fun w ->
                 if m >= 62 || w > horizon asr m then horizon else w lsl m)
               cws)
        in
        imin horizon
          (backoff + imin horizon (longest aifs_a)
          + imin horizon
              (imax (longest vuln_slots_a)
                 (imax (longest ts_slots_a) (longest tc_slots_a))))
      in
      let span =
        let s = ref 1 in
        while !s <= reach do
          s := 2 * !s
        done;
        !s
      in
      let mask = span - 1 in
      (* A node has at most one pending event of each kind: scheduling one
         replaces the pending one, which the node's state has just made
         obsolete (a later busy or NAV end, a backoff expiry a freeze
         voided).  So the events live in one pooled int store of 4n cells,
         cell [4 id + kind], chained per slot through [next] and [prev]
         ([prev] is [-1 - s] at the head of slot [s], [unlinked] off the
         wheel): scheduling and cancelling are O(1), the store never
         grows, and a drain meets only events that were still current
         when their slot came up — the checks in the drain catch the ones
         replaced while it runs. *)
      let unlinked = min_int in
      let heads = Array.make span (-1) in
      let next = Array.make (4 * n) (-1) in
      let prev = Array.make (4 * n) unlinked in
      let pending = ref 0 in
      let now = ref (-1) in
      let cancel c =
        let p = prev.(c) in
        if p <> unlinked then begin
          let nx = next.(c) in
          if p >= 0 then next.(p) <- nx else heads.(-1 - p) <- nx;
          if nx >= 0 then prev.(nx) <- p;
          prev.(c) <- unlinked;
          decr pending
        end
      in
      let schedule t kind id =
        let c = (4 * id) + kind in
        cancel c;
        if t < horizon then begin
          assert (t > !now && t - !now <= span);
          let s = t land mask in
          let head = heads.(s) in
          next.(c) <- head;
          prev.(c) <- -1 - s;
          if head >= 0 then prev.(head) <- c;
          heads.(s) <- c;
          incr pending
        end
      in
      (* A drained slot's events as sort keys in (kind, caller number)
         order, the node's internal number in the low bits; starters sort
         by (caller number, internal number).  Caller order keeps recorder
         instants in the order {!run} emits them. *)
      let id_bits =
        let b = ref 0 in
        while 1 lsl !b < n do
          incr b
        done;
        !b
      in
      let id_mask = (1 lsl id_bits) - 1 in
      let starter_key nd = (nd.cid lsl id_bits) lor nd.id in
      let due = Array.make (4 * n) 0 in
      let starters = Array.make n 0 in
      let n_starters = ref 0 in
      let freeze t nd =
        if not nd.frozen then begin
          nd.frozen <- true;
          if nd.expiry >= 0 then begin
            (* Only slots past the defer end are consumed backoff; a
               freeze inside the defer keeps the backoff whole (the defer
               re-arms in full at the next unfreeze). *)
            nd.counter <- nd.expiry - imax t nd.defer_end;
            nd.expiry <- -1
          end;
          cancel ((4 * nd.id) + kind_fire)
        end
      in
      let try_unfreeze t nd =
        if
          nd.can_tx && nd.frozen && nd.busy_until <= t && nd.nav_until <= t
          && nd.audible = 0
        then begin
          nd.frozen <- false;
          let a = aifs_a.(nd.cid) in
          if a = 0 && nd.counter <= 0 then begin
            nd.expiry <- -1;
            starters.(!n_starters) <- starter_key nd;
            incr n_starters
          end
          else begin
            nd.defer_end <- t + a;
            nd.expiry <- nd.defer_end + imax nd.counter 0;
            schedule nd.expiry kind_fire nd.id
          end
        end
      in
      (* A busy or NAV interval that ends by the current slot is empty:
         it silences nobody (the reference loop's sensing ignores it), so
         it freezes nobody and schedules nothing.  It arises only when
         Ts rounds to no more slots than the RTS, i.e. frames shorter
         than half a slot. *)
      (raise_busy :=
         fun t nd v ->
           if v > nd.busy_until && v > t then begin
             nd.busy_until <- v;
             if not nd.on_air then begin
               nd.on_air <- true;
               let cs = nd.cs_neighbors in
               for k = 0 to Array.length cs - 1 do
                 let p = nodes.(cs.(k)) in
                 p.audible <- p.audible + 1;
                 freeze t p
               done
             end;
             freeze t nd;
             schedule v kind_busy_release nd.id
           end);
      (raise_nav :=
         fun t nd v ->
           if v > t then begin
             nd.nav_until <- v;
             freeze t nd;
             schedule v kind_nav_release nd.id
           end);
      (obtain :=
         fun node dest now ->
           let tx = node.tx in
           tx.dest <- dest;
           tx.vuln_end <- now + vuln_slots_a.(node.cid);
           tx.resolved <- false;
           tx.finish <- now + vuln_slots_a.(node.cid);
           tx.corrupted_local <- false;
           tx.corrupted_hidden <- false;
           tx);
      (match geo with
      | None ->
          (* Airborne transmissions, one slot per node (a node carries at
             most one outstanding frame); stale entries are pruned lazily
             while marking. *)
          let bag = Array.make n 0 in
          let bag_len = ref 0 in
          (register :=
             fun node tx ->
               if not node.in_bag then begin
                 node.in_bag <- true;
                 bag.(!bag_len) <- node.id;
                 incr bag_len
               end;
               schedule tx.vuln_end kind_resolve node.id);
          mark_airborne :=
            fun node now tx ->
              let k = ref 0 in
              while !k < !bag_len do
                let id = bag.(!k) in
                let other = nodes.(id).tx in
                if other.resolved && other.finish <= now then begin
                  nodes.(id).in_bag <- false;
                  decr bag_len;
                  bag.(!k) <- bag.(!bag_len)
                end
                else begin
                  mark now node tx other;
                  incr k
                end
              done
      | Some _ ->
          (* Destination index: the airborne sources whose frame is
             addressed to [d] are chained from [air_head.(d)] through
             [air_next] and [air_prev] ([air_prev] is [-1 - d] at the head,
             [unlinked] off the index), the wheel's encoding.  [mark] can
             change a flag only when the other frame's source is a decode
             neighbour of the new frame's destination, or when the other
             frame is addressed to the new frame's source or to a decode
             neighbour of it — so marking visits those two sets and nothing
             else.  A stale frame met on the way is unlinked; a frame not
             yet stale is always linked, so the first set skips unlinked
             sources. *)
          let air_head = Array.make n (-1) in
          let air_next = Array.make n (-1) in
          let air_prev = Array.make n unlinked in
          let unlink s =
            let p = air_prev.(s) in
            if p <> unlinked then begin
              let nx = air_next.(s) in
              if p >= 0 then air_next.(p) <- nx else air_head.(-1 - p) <- nx;
              if nx >= 0 then air_prev.(nx) <- p;
              air_prev.(s) <- unlinked
            end
          in
          let offer node now tx s =
            let other = nodes.(s).tx in
            if other.resolved && other.finish <= now then unlink s
            else mark now node tx other
          in
          let offer_list node now tx d =
            let s = ref air_head.(d) in
            while !s >= 0 do
              let cur = !s in
              s := air_next.(cur);
              offer node now tx cur
            done
          in
          (register :=
             fun node tx ->
               let s = node.id and d = tx.dest in
               unlink s;
               let head = air_head.(d) in
               air_next.(s) <- head;
               air_prev.(s) <- -1 - d;
               if head >= 0 then air_prev.(head) <- s;
               air_head.(d) <- s;
               schedule tx.vuln_end kind_resolve s);
          mark_airborne :=
            fun node now tx ->
              let near = nodes.(tx.dest).neighbors in
              for k = 0 to Array.length near - 1 do
                let s = near.(k) in
                if air_prev.(s) <> unlinked then offer node now tx s
              done;
              offer_list node now tx node.id;
              let near = node.neighbors in
              for k = 0 to Array.length near - 1 do
                offer_list node now tx near.(k)
              done);
      (* Seed the calendar: every node that can transmit starts unfrozen
         with its initial AIFS defer and backoff pending. *)
      Array.iter
        (fun nd ->
          if nd.can_tx then begin
            nd.defer_end <- aifs_a.(nd.cid);
            nd.expiry <- nd.defer_end + nd.counter;
            schedule nd.expiry kind_fire nd.id
          end
          else nd.frozen <- true)
        nodes;
      while !pending > 0 do
        incr now;
        let t = !now in
        let s = t land mask in
        if heads.(s) >= 0 then begin
          (* Detach the slot's chain, then drain it in key order:
             resolutions, then busy releases, then NAV releases, then
             fires, each in ascending caller number. *)
          let k = ref 0 in
          let c = ref heads.(s) in
          heads.(s) <- -1;
          while !c >= 0 do
            let cell = !c in
            let id = cell lsr 2 in
            due.(!k) <-
              ((((cell land 3) lsl id_bits) lor order.(id)) lsl id_bits) lor id;
            incr k;
            c := next.(cell);
            prev.(cell) <- unlinked
          done;
          pending := !pending - !k;
          Prelude.Util.sort_ints due !k;
          n_starters := 0;
          for e = 0 to !k - 1 do
            let key = due.(e) in
            let nd = nodes.(key land id_mask) in
            let kind = key lsr (2 * id_bits) in
            if rec_detail then
              Telemetry.Recorder.instant recorder nid_event.(kind) t nd.cid;
            if kind = kind_resolve then begin
              let tx = nd.tx in
              if (not tx.resolved) && tx.vuln_end = t then resolve t tx
            end
            else if kind = kind_busy_release then begin
              if nd.on_air && nd.busy_until = t then begin
                nd.on_air <- false;
                let cs = nd.cs_neighbors in
                for k = 0 to Array.length cs - 1 do
                  let p = nodes.(cs.(k)) in
                  p.audible <- p.audible - 1;
                  try_unfreeze t p
                done;
                try_unfreeze t nd
              end
            end
            else if kind = kind_nav_release then begin
              if nd.nav_until = t then try_unfreeze t nd
            end
            else if (not nd.frozen) && nd.expiry = t then begin
              (* Fire: the backoff expired while still idle-sensing. *)
              nd.expiry <- -1;
              starters.(!n_starters) <- starter_key nd;
              incr n_starters
            end
          done;
          (* Launch this slot's starters in caller order against the
             post-resolution channel snapshot — same-slot starters cannot
             sense each other, so each starts regardless of what the ones
             before it just did. *)
          Prelude.Util.sort_ints starters !n_starters;
          for k = 0 to !n_starters - 1 do
            let nd = nodes.(starters.(k) land id_mask) in
            nd.frozen <- true;
            nd.expiry <- -1;
            start_transmission t nd
          done
        end
      done;
      (* Frames still unresolved carry a vulnerable window past the horizon
         (in-horizon resolutions all had calendar entries); resolve them so
         per-node accounting balances.  [clip] discards their airtime.
         Resolution order cannot affect the result here: each resolve
         only touches its own node's counters and rng stream plus global
         sums, and every airtime contribution clips to the horizon.
         Caller order keeps the recorder instants the same across
         numberings. *)
      Array.iter
        (fun id ->
          let tx = nodes.(id).tx in
          if not tx.resolved then resolve tx.vuln_end tx)
        rank);
  let elapsed = float_of_int horizon *. sigma in
  let per_node =
    Array.map
      (fun id ->
        let nd = nodes.(id) in
        let clean = nd.attempts - nd.local_collisions in
        (* Frames transmitted: one per failed access (only the first frame
           of a burst collides), txop per winning access.  Equals
           [attempts] on the degenerate subspace. *)
        let frames =
          nd.attempts - nd.success_accesses
          + (nd.success_accesses * txop_a.(nd.cid))
        in
        {
          attempts = nd.attempts;
          successes = nd.successes;
          drops = nd.drops;
          local_collisions = nd.local_collisions;
          hidden_failures = nd.hidden_failures;
          payoff_rate =
            ((float_of_int nd.successes *. params.gain)
            -. (float_of_int frames *. params.cost))
            /. elapsed;
          throughput =
            float_of_int nd.successes *. times_a.(nd.cid).payload /. elapsed;
          p_hn_hat =
            (if clean <= 0 then 1.
             else
               float_of_int (clean - nd.hidden_failures) /. float_of_int clean);
        })
      rank
  in
  let horizon_f = float_of_int horizon in
  let busy_fraction = float_of_int !busy_slots /. horizon_f in
  let airtime =
    {
      busy_fraction;
      idle_fraction = 1. -. busy_fraction;
      success_fraction = float_of_int !success_tx_slots /. horizon_f;
      collision_fraction = float_of_int !collision_tx_slots /. horizon_f;
      overlap_fraction =
        float_of_int (!success_tx_slots + !collision_tx_slots - !busy_slots)
        /. horizon_f;
    }
  in
  (* Always-on conservation checker: these identities hold by construction,
     so a violation means the scheduler or the accounting is broken — fail
     the run rather than publish bad numbers. *)
  let fail fmt = Printf.ksprintf failwith fmt in
  Array.iteri
    (fun i id ->
      let nd = nodes.(id) in
      if
        nd.attempts
        <> nd.success_accesses + nd.local_collisions + nd.hidden_failures
      then
        fail
          "Spatial.run: conservation violated at node %d: %d attempts <> %d \
           winning accesses + %d local + %d hidden"
          i nd.attempts nd.success_accesses nd.local_collisions
          nd.hidden_failures;
      if nd.successes <> nd.success_accesses * txop_a.(i) then
        fail
          "Spatial.run: conservation violated at node %d: %d frames <> %d \
           accesses x txop %d"
          i nd.successes nd.success_accesses txop_a.(i))
    rank;
  let total_successes =
    Array.fold_left (fun acc (s : node_stats) -> acc + s.successes) 0 per_node
  in
  if !delivered + !delivered_late <> total_successes then
    fail
      "Spatial.run: conservation violated: delivered %d + late %d <> %d \
       successes"
      !delivered !delivered_late total_successes;
  if !busy_slots > horizon then
    fail "Spatial.run: conservation violated: busy %d slots > horizon %d"
      !busy_slots horizon;
  if !success_tx_slots + !collision_tx_slots < !busy_slots then
    fail
      "Spatial.run: conservation violated: success %d + collision %d < busy \
       %d slots"
      !success_tx_slots !collision_tx_slots !busy_slots;
  let balance =
    airtime.idle_fraction +. airtime.success_fraction
    +. airtime.collision_fraction -. airtime.overlap_fraction
  in
  if Float.abs (balance -. 1.) > 1e-9 then
    fail "Spatial.run: conservation violated: airtime balance %.12f <> 1"
      balance;
  let result =
    {
      time = elapsed;
      per_node;
      welfare_rate =
        Array.fold_left (fun acc s -> acc +. s.payoff_rate) 0. per_node;
      delivered = !delivered;
      delivered_late = !delivered_late;
      airtime;
    }
  in
  (* The grid counts into a plain int, so the neighbourhood build never
     takes the registry lock; its tally is folded in once per run. *)
  Option.iter
    (fun g ->
      Telemetry.Metric.add
        (Telemetry.Registry.counter telemetry "netsim.grid.candidates")
        (Mobility.Grid.candidates g))
    geo;
  Telemetry.Metric.incr
    (Telemetry.Registry.counter telemetry "netsim.spatial.runs");
  Telemetry.Registry.emit telemetry "run_summary" (fun () ->
      let share (s : node_stats) =
        if total_successes = 0 then 0.
        else float_of_int s.successes /. float_of_int total_successes
      in
      [
        ("sim", Telemetry.Jsonx.String "spatial");
        ("n", Telemetry.Jsonx.Int n);
        ("seed", Telemetry.Jsonx.Int seed);
        ("time", Telemetry.Jsonx.Float elapsed);
        ("delivered", Telemetry.Jsonx.Int !delivered);
        ("delivered_late", Telemetry.Jsonx.Int !delivered_late);
        ("busy_fraction", Telemetry.Jsonx.Float airtime.busy_fraction);
        ("idle_fraction", Telemetry.Jsonx.Float airtime.idle_fraction);
        ("success_fraction", Telemetry.Jsonx.Float airtime.success_fraction);
        ( "collision_fraction",
          Telemetry.Jsonx.Float airtime.collision_fraction );
        ("overlap_fraction", Telemetry.Jsonx.Float airtime.overlap_fraction);
        ("welfare_rate", Telemetry.Jsonx.Float result.welfare_rate);
        ( "hidden_failures",
          Telemetry.Jsonx.Int
            (Array.fold_left
               (fun acc (s : node_stats) -> acc + s.hidden_failures)
               0 per_node) );
        ( "jain_fairness",
          Telemetry.Jsonx.Float
            (Prelude.Stats.jain_fairness
               (Array.map (fun s -> s.throughput) per_node)) );
        ( "success_share",
          Telemetry.Jsonx.List
            (Array.to_list
               (Array.map (fun s -> Telemetry.Jsonx.Float (share s)) per_node))
        );
      ]);
  result

(* A span around one run (a = n, b = seed): cheap enough to leave on
   every entry point, and it parents the per-transmission instants so
   traces group by simulation. *)
let nid_run = Telemetry.Recorder.intern recorder "spatial.run"

let diff_requested () =
  match Sys.getenv_opt "NETSIM_SPATIAL_DIFF" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let run_reference ?(telemetry = Telemetry.Registry.default) ?cs_adjacency
    ?(retry_limit = max_int) ?strategies
    { params; adjacency; cws; duration; seed } =
  let hoods = Lists { adjacency; cs_adjacency } in
  Telemetry.Recorder.with_span recorder nid_run (Array.length adjacency)
    seed (fun () ->
      simulate ~driver:Reference ~telemetry ~retry_limit ~flight:true
        ~strategies ~rng_of:None ~hoods ~params ~cws ~duration ~seed)

let run ?(telemetry = Telemetry.Registry.default) ?cs_adjacency
    ?(retry_limit = max_int) ?strategies
    { params; adjacency; cws; duration; seed } =
  let hoods = Lists { adjacency; cs_adjacency } in
  let result =
    Telemetry.Recorder.with_span recorder nid_run (Array.length adjacency)
      seed (fun () ->
        simulate ~driver:Event_core ~telemetry ~retry_limit ~flight:true
          ~strategies ~rng_of:None ~hoods ~params ~cws ~duration ~seed)
  in
  if diff_requested () then begin
    let shadow =
      simulate ~driver:Reference
        ~telemetry:(Telemetry.Registry.create ())
        ~retry_limit ~flight:false ~strategies ~rng_of:None ~hoods ~params
        ~cws ~duration ~seed
    in
    if not (equal_result result shadow) then
      failwith
        "Spatial.run: NETSIM_SPATIAL_DIFF divergence: event core and \
         reference loop disagree"
  end;
  result

let run_grid ?(telemetry = Telemetry.Registry.default) ?(retry_limit = max_int)
    ?strategies ?rng_of ?cs_range ~params ~positions ~range ~cws ~duration
    ~seed () =
  let cs_range = Option.value cs_range ~default:range in
  let hoods = Geo { positions; range; cs_range } in
  let result =
    Telemetry.Recorder.with_span recorder nid_run (Array.length positions)
      seed (fun () ->
        simulate ~driver:Event_core ~telemetry ~retry_limit ~flight:true
          ~strategies ~rng_of ~hoods ~params ~cws ~duration ~seed)
  in
  if diff_requested () then begin
    let shadow =
      simulate ~driver:Reference
        ~telemetry:(Telemetry.Registry.create ())
        ~retry_limit ~flight:false ~strategies ~rng_of ~hoods ~params ~cws
        ~duration ~seed
    in
    if not (equal_result result shadow) then
      failwith
        "Spatial.run_grid: NETSIM_SPATIAL_DIFF divergence: event core and \
         reference loop disagree"
  end;
  result

(* Single-hop adapter for the payoff oracle: a clique adjacency makes every
   node hear and address every other, so the spatial machinery degenerates
   to the saturated single-hop world — modulo σ-quantisation of frame
   times.  The loop has no virtual-slot notion, so τ̂ is attempts per
   σ-slot and the slot estimate is σ itself: coarser than Slotted's, while
   payoff and throughput come from exact counters. *)
let clique_estimates ?telemetry ?strategies ~params ~cws ~duration ~seed () =
  let n = Array.length cws in
  let everyone = List.init n Fun.id in
  let adjacency =
    Array.init n (fun i -> List.filter (fun j -> j <> i) everyone)
  in
  let result =
    run ?telemetry ?strategies { params; adjacency; cws; duration; seed }
  in
  let sigma = params.Dcf.Params.sigma in
  let slots = result.time /. sigma in
  Array.map
    (fun (s : node_stats) ->
      {
        Estimate.tau_hat = float_of_int s.attempts /. slots;
        p_hat =
          (* Failed accesses over accesses; on the degenerate subspace
             this equals the historical (attempts − successes)/attempts
             (successes then counts accesses). *)
          (if s.attempts = 0 then 0.
           else
             float_of_int (s.local_collisions + s.hidden_failures)
             /. float_of_int s.attempts);
        payoff_rate = s.payoff_rate;
        throughput = s.throughput;
        slot_time = sigma;
      })
    result.per_node
