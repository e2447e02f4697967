type config = {
  params : Dcf.Params.t;
  cws : int array;
  duration : float;
  seed : int;
}

type queue_stats = {
  arrivals : int;
  backlog : int;
  mean_sojourn : float;
  mean_queue_length : float;
  busy_fraction : float;
}

type node_stats = {
  attempts : int;
  successes : int;
  collisions : int;
  drops : int;
  tau_hat : float;
  p_hat : float;
  payoff_rate : float;
  throughput : float;
  queue : queue_stats option;
}

type airtime = {
  idle_fraction : float;
  success_fraction : float;
  collision_fraction : float;
  error_fraction : float;
}

type result = {
  time : float;
  slots : int;
  per_node : node_stats array;
  total_throughput : float;
  welfare_rate : float;
  airtime : airtime;
}

type node_state = {
  id : int;
  window : int;
  mutable stage : int;
  mutable counter : int;
  mutable defer : int;
      (* remaining AIFS slots: consumed before the backoff counter after
         every busy period; permanently 0 on the degenerate subspace *)
  mutable retries : int;
  mutable attempts : int;
  mutable success_accesses : int;
  mutable successes : int;  (* frames delivered: txop per winning access *)
  mutable frames : int;     (* frames put on air (the energy-cost basis) *)
  mutable drops : int;
  rng : Prelude.Rng.t;
}

(* Queued arrival timestamps: a ring of unboxed floats that doubles when
   full, so a packet costs no cons cell and no boxed float. *)
module Fifo = struct
  type t = {
    mutable buf : Float.Array.t;
    mutable head : int;
    mutable len : int;
  }

  let create () = { buf = Float.Array.make 16 0.; head = 0; len = 0 }

  (* Doubles the ring, unrolling it to start at index 0. *)
  let grow q =
    let cap = Float.Array.length q.buf in
    let buf = Float.Array.make (2 * cap) 0. in
    for i = 0 to q.len - 1 do
      Float.Array.set buf i
        (Float.Array.get q.buf ((q.head + i) land (cap - 1)))
    done;
    q.buf <- buf;
    q.head <- 0

  let[@inline] push q x =
    if q.len = Float.Array.length q.buf then grow q;
    let mask = Float.Array.length q.buf - 1 in
    Float.Array.set q.buf ((q.head + q.len) land mask) x;
    q.len <- q.len + 1

  let[@inline] drop q =
    q.head <- (q.head + 1) land (Float.Array.length q.buf - 1);
    q.len <- q.len - 1

  let[@inline] pop q =
    let x = Float.Array.get q.buf q.head in
    drop q;
    x
end

(* A node's float traffic state, an all-float record so that it is stored
   flat and updates do not box. *)
type clocks = {
  mutable next_arrival : float;   (* infinity when rate = 0 *)
  mutable sojourn_total : float;
  mutable queue_area : float;     (* ∫ queue length dt *)
  mutable busy_time : float;      (* ∫ 1(queue non-empty) dt *)
}

(* A node's Poisson source and the queue it feeds. *)
type source = {
  rate : float;
  fifo : Fifo.t;                  (* arrival timestamps *)
  clocks : clocks;
  mutable arrived : int;
}

let draw_backoff node =
  Prelude.Rng.int node.rng (node.window lsl node.stage)

(* Exp(rate) drawn as [Rng.exponential] draws it, from
   [Rng.bits53_nonzero], whose int comes back unboxed where
   [exponential]'s float would be boxed, once per arrival. *)
let[@inline] schedule_arrival nd src now =
  src.clocks.next_arrival <-
    (if src.rate <= 0. then infinity
     else
       let u = float_of_int (Prelude.Rng.bits53_nonzero nd.rng) *. 0x1p-53 in
       now +. (-.log u /. src.rate))

(* Charge [dt] to the queue integrals of the [nq] nodes listed in
   [queued]; every other queue is empty. *)
let[@inline] charge sources queued nq dt =
  for j = 0 to nq - 1 do
    let src = sources.(queued.(j)) in
    let len = src.fifo.len in
    if len > 0 then begin
      let c = src.clocks in
      c.queue_area <- c.queue_area +. (float_of_int len *. dt);
      c.busy_time <- c.busy_time +. dt
    end
  done

(* A failed access (collision or channel error): the node backs off one
   stage, or past [retry_limit] retransmissions discards the head-of-line
   packet and starts the next one at stage 0.  Returns whether it
   dropped. *)
let fail ~retry_limit ~m nd =
  nd.attempts <- nd.attempts + 1;
  nd.frames <- nd.frames + 1;
  nd.retries <- nd.retries + 1;
  if nd.retries > retry_limit then begin
    nd.drops <- nd.drops + 1;
    nd.retries <- 0;
    nd.stage <- 0;
    true
  end
  else begin
    let s = nd.stage + 1 in
    nd.stage <- (if s < m then s else m);
    false
  end

(* Flight-recorder names, interned once (intern takes a lock).  Each
   instant carries a = virtual slot, b = node. *)
let recorder = Telemetry.Recorder.default
let nid_success = Telemetry.Recorder.intern recorder "slotted.success"
let nid_collision = Telemetry.Recorder.intern recorder "slotted.collision"

let nid_channel_error =
  Telemetry.Recorder.intern recorder "slotted.channel_error"

let nid_drop = Telemetry.Recorder.intern recorder "slotted.drop"

let run ?(telemetry = Telemetry.Registry.default) ?(bianchi_ticks = false)
    ?(retry_limit = max_int) ?(per = 0.) ?strategies ?arrival_rates
    { params; cws; duration; seed } =
  if retry_limit < 0 then invalid_arg "Slotted.run: retry_limit must be >= 0";
  (* Written so that NaN fails them. *)
  if not (per >= 0. && per < 1.) then
    invalid_arg "Slotted.run: per must be in [0, 1)";
  let n = Array.length cws in
  if n = 0 then invalid_arg "Slotted.run: empty network";
  if not (duration > 0.) then
    invalid_arg "Slotted.run: duration must be positive";
  if not (Float.is_finite duration) then
    invalid_arg "Slotted.run: duration must be finite";
  Array.iter
    (fun w -> if w < 1 then invalid_arg "Slotted.run: window must be >= 1")
    cws;
  (match arrival_rates with
  | None -> ()
  | Some rates ->
      if Array.length rates <> n then
        invalid_arg "Slotted.run: arrival_rates length mismatch";
      Array.iter
        (fun r ->
          if r < 0. then invalid_arg "Slotted.run: negative arrival rate";
          if not (Float.is_finite r) then
            invalid_arg "Slotted.run: arrival rate must be finite")
        rates;
      (* The chain's busy-slot ticks are defined for saturated stations. *)
      if bianchi_ticks then
        invalid_arg "Slotted.run: bianchi_ticks needs saturated traffic");
  let poisson = Option.is_some arrival_rates in
  let m = params.max_backoff_stage in
  let timing = Dcf.Timing.of_params params in
  (* Per-node strategy knobs and channel occupancies.  Without strategies
     (or with degenerate ones) every array holds the CW-only values, and
     the loop below executes the exact same float/RNG operation sequence
     as the pre-strategy simulator — the degenerate bit-identity the
     conformance suite asserts. *)
  (match strategies with
  | None -> ()
  | Some ss ->
      if Array.length ss <> n then
        invalid_arg "Slotted.run: strategies length mismatch";
      Array.iteri
        (fun i (s : Dcf.Strategy_space.t) ->
          (match Dcf.Strategy_space.validate s with
          | Ok () -> ()
          | Error e -> invalid_arg ("Slotted.run: " ^ e));
          if s.cw <> cws.(i) then
            invalid_arg "Slotted.run: strategies disagree with cws";
          (* A burst may outlast the packets queued when it starts, and
             the airtime of a partial burst is not modelled. *)
          if poisson && s.txop_frames > 1 then
            invalid_arg "Slotted.run: txop_frames > 1 needs saturated traffic")
        ss);
  let strats =
    match strategies with
    | Some ss -> ss
    | None -> Array.map Dcf.Strategy_space.of_cw cws
  in
  let aifs = Array.map (fun (s : Dcf.Strategy_space.t) -> s.aifs) strats in
  let has_aifs = Array.exists (fun a -> a > 0) aifs in
  let txop =
    Array.map (fun (s : Dcf.Strategy_space.t) -> s.txop_frames) strats
  in
  let times = Array.map (Dcf.Strategy_space.times params ~base:timing) strats in
  let sts = Array.map (fun (t : Dcf.Strategy_space.times) -> t.ts) times in
  let sts1 = Array.map (fun (t : Dcf.Strategy_space.times) -> t.ts1) times in
  let stc = Array.map (fun (t : Dcf.Strategy_space.times) -> t.tc) times in
  let spayload =
    Array.map (fun (t : Dcf.Strategy_space.times) -> t.payload) times
  in
  let master = Prelude.Rng.create seed in
  (* One flag read per run, not per event: the recorder can only be
     toggled between runs, and a captured bool keeps each logging site at
     one predictable branch. *)
  let rec_on = Telemetry.Recorder.enabled recorder in
  let nodes =
    Array.mapi
      (fun id window ->
        let node =
          {
            id;
            window;
            stage = 0;
            counter = 0;
            defer = aifs.(id);
            retries = 0;
            attempts = 0;
            success_accesses = 0;
            successes = 0;
            frames = 0;
            drops = 0;
            rng = Prelude.Rng.split master;
          }
        in
        (* A saturated node draws its first backoff; a Poisson node's
           first draw is its first inter-arrival. *)
        if not poisson then node.counter <- draw_backoff node;
        node)
      cws
  in
  let sources =
    match arrival_rates with
    | None -> [||]
    | Some rates ->
        Array.init n (fun i ->
            let src =
              {
                rate = rates.(i);
                fifo = Fifo.create ();
                clocks =
                  {
                    next_arrival = 0.;
                    sojourn_total = 0.;
                    queue_area = 0.;
                    busy_time = 0.;
                  };
                arrived = 0;
              }
            in
            schedule_arrival nodes.(i) src 0.;
            src)
  in
  let sigma = params.sigma in
  (* Under Poisson traffic the nodes with a queued packet, the only ones
     that contend, are gathered in ascending id order into [queued]; the
     current slot's transmitters, likewise, into [tx]. *)
  let queued = if poisson then Array.make n 0 else [||] in
  let tx = Array.make n 0 in
  (* The loop, written once and inlined at its two calls below, so each
     copy keeps only its own traffic's branches ([poisson] is a constant
     in each) and the saturated copy runs what a loop written for
     saturated stations alone would run.  It calls no closure and
     allocates nothing per slot, transmission or arrival (but when a
     queue's ring doubles).  The clock and the airtime sums are locals of
     this function that no closure captures, so they stay unboxed.  Every defer is permanently 0 on the
     degenerate subspace, so the per-slot defer bookkeeping is gated
     behind [has_aifs] too. *)
  let[@inline] simulate poisson =
    let time = ref 0. in
    let slots = ref 0 in
    (* Channel-airtime accounting, updated incrementally as the simulation
       advances so the run summary costs nothing extra at the end. *)
    let idle_airtime = ref 0. in
    let success_airtime = ref 0. in
    let collision_airtime = ref 0. in
    let error_airtime = ref 0. in
    let nq = ref 0 in
    let next_arrival = ref infinity in
    while !time < duration do
      (* Queue every arrival due by now, in id order (a packet reaching
         an empty queue schedules the next arrival, then waits a full AIFS
         and a fresh stage-0 backoff), gather the queued nodes and find
         the next arrival. *)
      if poisson then begin
        nq := 0;
        next_arrival := infinity;
        for i = 0 to n - 1 do
          let src = sources.(i) in
          let c = src.clocks in
          while c.next_arrival <= !time do
            let nd = nodes.(i) in
            let was_empty = src.fifo.len = 0 in
            Fifo.push src.fifo c.next_arrival;
            src.arrived <- src.arrived + 1;
            schedule_arrival nd src c.next_arrival;
            if was_empty then begin
              nd.stage <- 0;
              nd.defer <- aifs.(i);
              nd.counter <- draw_backoff nd
            end
          done;
          if src.fifo.len > 0 then begin
            queued.(!nq) <- i;
            incr nq
          end;
          if c.next_arrival < !next_arrival then next_arrival := c.next_arrival
        done
      end;
      let contenders = if poisson then !nq else n in
      if poisson && contenders = 0 then begin
        (* Every queue is empty: jump to the next arrival (or the
           horizon); no contention slot passes and no integral grows. *)
        let t = if !next_arrival < duration then !next_arrival else duration in
        idle_airtime := !idle_airtime +. (t -. !time);
        time := t
      end
      else begin
        (* Skip ahead by the smallest counter (idle slots), then resolve
           the transmission slot. *)
        let idle = ref max_int in
        if has_aifs then
          for j = 0 to contenders - 1 do
            let nd = nodes.(if poisson then queued.(j) else j) in
            let c = nd.defer + nd.counter in
            if c < !idle then idle := c
          done
        else
          for j = 0 to contenders - 1 do
            let c = nodes.(if poisson then queued.(j) else j).counter in
            if c < !idle then idle := c
          done;
        let idle = !idle in
        (* An arrival due before the idle run ends cuts it short: burn
           ⌈gap/σ⌉ slots (at least one) and look again with the new
           packet queued.  Otherwise the slot after the idle run is a
           transmission slot. *)
        let arrival_slots =
          if poisson then
            if !next_arrival = infinity then max_int
            else
              let s =
                int_of_float
                  (Float.ceil ((!next_arrival -. !time) /. sigma))
              in
              if s > 0 then s else 0
          else max_int
        in
        let transmit = if poisson then arrival_slots >= idle else true in
        let k =
          if poisson then
            if transmit then idle
            else if arrival_slots > 1 then arrival_slots
            else 1
          else idle
        in
        if k > 0 then begin
          let dt = float_of_int k *. sigma in
          let now = !time in
          time := now +. dt;
          if poisson then charge sources queued contenders (!time -. now);
          idle_airtime := !idle_airtime +. dt;
          slots := !slots + k
        end;
        (* Tick the idle slots off (AIFS defer slots before backoff
           slots) and gather the nodes left at zero. *)
        let ntx = ref 0 in
        if has_aifs then
          for j = 0 to contenders - 1 do
            let i = if poisson then queued.(j) else j in
            let nd = nodes.(i) in
            let d = if nd.defer < k then nd.defer else k in
            nd.defer <- nd.defer - d;
            nd.counter <- nd.counter - (k - d);
            if nd.defer = 0 && nd.counter = 0 then begin
              tx.(!ntx) <- i;
              incr ntx
            end
          done
        else
          for j = 0 to contenders - 1 do
            let i = if poisson then queued.(j) else j in
            let nd = nodes.(i) in
            let c = nd.counter - k in
            nd.counter <- c;
            if c = 0 then begin
              tx.(!ntx) <- i;
              incr ntx
            end
          done;
        let ntx = !ntx in
        if transmit && !time < duration then begin
          incr slots;
          let now = !time in
          if ntx = 1 then begin
            let winner = nodes.(tx.(0)) in
            if per > 0. && Prelude.Rng.bernoulli winner.rng per then begin
              (* Channel error: the lone winner's first frame went out in
                 full but arrived corrupted, so the channel is held for
                 one whole frame time — not the collision time Tc, which
                 models truncated overlapping frames.  The missing ACK
                 aborts any TXOP continuation, so the burst never
                 happens.  The packet stays queued. *)
              if rec_on then
                Telemetry.Recorder.instant recorder nid_channel_error !slots
                  winner.id;
              if fail ~retry_limit ~m winner then begin
                if poisson then Fifo.drop sources.(winner.id).fifo;
                if rec_on then
                  Telemetry.Recorder.instant recorder nid_drop !slots
                    winner.id
              end;
              time := !time +. sts1.(winner.id);
              error_airtime := !error_airtime +. sts1.(winner.id)
            end
            else begin
              winner.attempts <- winner.attempts + 1;
              winner.success_accesses <- winner.success_accesses + 1;
              winner.successes <- winner.successes + txop.(winner.id);
              winner.frames <- winner.frames + txop.(winner.id);
              winner.stage <- 0;
              winner.retries <- 0;
              (* The delivered packet leaves its queue as its frame
                 starts, and its sojourn ends with the frame. *)
              if poisson then begin
                let src = sources.(winner.id) in
                let arrived = Fifo.pop src.fifo in
                src.clocks.sojourn_total <-
                  src.clocks.sojourn_total
                  +. (!time +. sts.(winner.id) -. arrived)
              end;
              time := !time +. sts.(winner.id);
              success_airtime := !success_airtime +. sts.(winner.id);
              if rec_on then
                Telemetry.Recorder.instant recorder nid_success !slots
                  winner.id
            end
          end
          else begin
            assert (ntx > 1);
            (* Overlapping frames hold the channel for the longest
               collider's Tc (equal to the common Tc on the degenerate
               subspace). *)
            let tc_busy = ref 0. in
            for j = 0 to ntx - 1 do
              let nd = nodes.(tx.(j)) in
              if rec_on then
                Telemetry.Recorder.instant recorder nid_collision !slots nd.id;
              if fail ~retry_limit ~m nd then begin
                if poisson then Fifo.drop sources.(nd.id).fifo;
                if rec_on then
                  Telemetry.Recorder.instant recorder nid_drop !slots nd.id
              end;
              if stc.(nd.id) > !tc_busy then tc_busy := stc.(nd.id)
            done;
            time := !time +. !tc_busy;
            collision_airtime := !collision_airtime +. !tc_busy
          end;
          if poisson then charge sources queued contenders (!time -. now);
          if bianchi_ticks then
            (* Markov-chain convention: the busy virtual slot also ticks
               the frozen stations' counters (transmitters are at 0 and
               resample below; their fresh counter first ticks in the
               next slot).  The chain has no AIFS state, so the tick
               applies to backoff counters only. *)
            for i = 0 to n - 1 do
              let nd = nodes.(i) in
              if nd.counter > 0 then nd.counter <- nd.counter - 1
            done;
          (* A node whose queue ran empty draws no backoff until its next
             arrival. *)
          for j = 0 to ntx - 1 do
            let nd = nodes.(tx.(j)) in
            if poisson then begin
              if sources.(nd.id).fifo.len > 0 then
                nd.counter <- draw_backoff nd
            end
            else nd.counter <- draw_backoff nd
          done;
          (* Every node heard the busy period and defers AIFS slots before
             resuming its countdown. *)
          if has_aifs then
            for i = 0 to n - 1 do
              if aifs.(i) > 0 then nodes.(i).defer <- aifs.(i)
            done
        end
      end
    done;
    let elapsed = !time in
    ( elapsed,
      !slots,
      {
        idle_fraction = !idle_airtime /. elapsed;
        success_fraction = !success_airtime /. elapsed;
        collision_fraction = !collision_airtime /. elapsed;
        error_fraction = !error_airtime /. elapsed;
      } )
  in
  let elapsed, slots, airtime =
    if poisson then simulate true else simulate false
  in
  let queue_stats nd =
    let src = sources.(nd.id) in
    {
      arrivals = src.arrived;
      backlog = src.fifo.len;
      mean_sojourn =
        (if nd.successes = 0 then 0.
         else src.clocks.sojourn_total /. float_of_int nd.successes);
      mean_queue_length = src.clocks.queue_area /. elapsed;
      busy_fraction = src.clocks.busy_time /. elapsed;
    }
  in
  let per_node =
    Array.map
      (fun nd ->
        let attempts = nd.attempts and successes = nd.successes in
        let collisions = attempts - nd.success_accesses in
        {
          attempts;
          successes;
          collisions;
          drops = nd.drops;
          tau_hat =
            (if slots = 0 then 0.
             else float_of_int attempts /. float_of_int slots);
          p_hat =
            (if attempts = 0 then 0.
             else float_of_int collisions /. float_of_int attempts);
          payoff_rate =
            ((float_of_int successes *. params.gain)
            -. (float_of_int nd.frames *. params.cost))
            /. elapsed;
          throughput =
            float_of_int successes *. spayload.(nd.id) /. elapsed;
          queue = (if poisson then Some (queue_stats nd) else None);
        })
      nodes
  in
  let result =
    {
      time = elapsed;
      slots;
      per_node;
      total_throughput =
        Array.fold_left (fun acc s -> acc +. s.throughput) 0. per_node;
      welfare_rate =
        Array.fold_left (fun acc s -> acc +. s.payoff_rate) 0. per_node;
      airtime;
    }
  in
  Telemetry.Metric.incr
    (Telemetry.Registry.counter telemetry "netsim.slotted.runs");
  Telemetry.Metric.observe
    (Telemetry.Registry.histogram telemetry "netsim.slotted.slots")
    (float_of_int slots);
  Telemetry.Registry.emit telemetry "run_summary" (fun () ->
      let total_successes =
        Array.fold_left (fun acc (s : node_stats) -> acc + s.successes) 0
          per_node
      in
      let share (s : node_stats) =
        if total_successes = 0 then 0.
        else float_of_int s.successes /. float_of_int total_successes
      in
      (("sim", Telemetry.Jsonx.String "slotted")
      :: (if poisson then [ ("traffic", Telemetry.Jsonx.String "poisson") ]
          else []))
      @ [
          ("n", Telemetry.Jsonx.Int n);
          ("seed", Telemetry.Jsonx.Int seed);
          ("time", Telemetry.Jsonx.Float elapsed);
          ("slots", Telemetry.Jsonx.Int slots);
          ("idle_fraction", Telemetry.Jsonx.Float airtime.idle_fraction);
          ("success_fraction", Telemetry.Jsonx.Float airtime.success_fraction);
          ( "collision_fraction",
            Telemetry.Jsonx.Float airtime.collision_fraction );
          ("error_fraction", Telemetry.Jsonx.Float airtime.error_fraction);
          ("throughput", Telemetry.Jsonx.Float result.total_throughput);
          ("welfare_rate", Telemetry.Jsonx.Float result.welfare_rate);
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

let estimates ?telemetry ?strategies config =
  let result = run ?telemetry ?strategies config in
  let slot_time =
    if result.slots = 0 then config.params.sigma
    else result.time /. float_of_int result.slots
  in
  Array.map
    (fun s ->
      {
        Estimate.tau_hat = s.tau_hat;
        p_hat = s.p_hat;
        payoff_rate = s.payoff_rate;
        throughput = s.throughput;
        slot_time;
      })
    result.per_node

let payoff_oracle ~params ~n ~duration ~seed w =
  let result =
    run { params; cws = Array.make n w; duration; seed = seed + (w * 7919) }
  in
  result.per_node.(0).payoff_rate
