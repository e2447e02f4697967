type config = {
  params : Dcf.Params.t;
  cws : int array;
  duration : float;
  seed : int;
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

let draw_backoff node =
  Prelude.Rng.int node.rng (node.window lsl node.stage)

(* A failed access (collision or channel error): the node backs off one
   stage, or past [retry_limit] retransmissions discards the head-of-line
   packet, and the saturated queue offers the next one at stage 0.
   Returns whether it dropped. *)
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
    ?(retry_limit = max_int) ?(per = 0.) ?strategies
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
            invalid_arg "Slotted.run: strategies disagree with cws")
        ss);
  let strat i =
    match strategies with
    | Some ss -> ss.(i)
    | None -> Dcf.Strategy_space.of_cw cws.(i)
  in
  let aifs = Array.init n (fun i -> (strat i).Dcf.Strategy_space.aifs) in
  let has_aifs = Array.exists (fun a -> a > 0) aifs in
  let txop =
    Array.init n (fun i -> (strat i).Dcf.Strategy_space.txop_frames)
  in
  let times =
    Array.init n (fun i -> Dcf.Strategy_space.times params ~base:timing (strat i))
  in
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
        node.counter <- draw_backoff node;
        node)
      cws
  in
  let sigma = params.sigma in
  (* The clock and the airtime sums are locals that no closure captures,
     so they stay unboxed; the loop below calls no closure and allocates
     nothing. *)
  let time = ref 0. in
  let slots = ref 0 in
  (* Channel-airtime accounting, updated incrementally as the simulation
     advances so the run summary costs nothing extra at the end. *)
  let idle_airtime = ref 0. in
  let success_airtime = ref 0. in
  let collision_airtime = ref 0. in
  let error_airtime = ref 0. in
  (* The current slot's transmitters, in ascending id order. *)
  let tx = Array.make n 0 in
  (* Per virtual slot: skip ahead by the smallest counter (idle slots), then
     resolve the transmission slot.  Every defer is permanently 0 on the
     degenerate subspace, so the per-slot defer bookkeeping is gated
     behind [has_aifs] and the hot loop keeps the CW-only shape. *)
  while !time < duration do
    let idle = ref max_int in
    if has_aifs then
      for i = 0 to n - 1 do
        let nd = nodes.(i) in
        let c = nd.defer + nd.counter in
        if c < !idle then idle := c
      done
    else
      for i = 0 to n - 1 do
        let c = nodes.(i).counter in
        if c < !idle then idle := c
      done;
    let idle = !idle in
    if idle > 0 then begin
      let dt = float_of_int idle *. sigma in
      time := !time +. dt;
      idle_airtime := !idle_airtime +. dt;
      slots := !slots + idle
    end;
    (* Tick the idle slots off (AIFS defer slots before backoff slots) and
       gather the nodes left at zero. *)
    let ntx = ref 0 in
    if has_aifs then
      for i = 0 to n - 1 do
        let nd = nodes.(i) in
        let d = if nd.defer < idle then nd.defer else idle in
        nd.defer <- nd.defer - d;
        nd.counter <- nd.counter - (idle - d);
        if nd.defer = 0 && nd.counter = 0 then begin
          tx.(!ntx) <- i;
          incr ntx
        end
      done
    else
      for i = 0 to n - 1 do
        let nd = nodes.(i) in
        let c = nd.counter - idle in
        nd.counter <- c;
        if c = 0 then begin
          tx.(!ntx) <- i;
          incr ntx
        end
      done;
    let ntx = !ntx in
    if !time < duration then begin
      incr slots;
      if ntx = 1 then begin
        let winner = nodes.(tx.(0)) in
        if per > 0. && Prelude.Rng.bernoulli winner.rng per then begin
          (* Channel error: the lone winner's first frame went out in full
             but arrived corrupted, so the channel is held for one whole
             frame time — not the collision time Tc, which models
             truncated overlapping frames.  The missing ACK aborts any
             TXOP continuation, so the burst never happens. *)
          if rec_on then
            Telemetry.Recorder.instant recorder nid_channel_error !slots
              winner.id;
          if fail ~retry_limit ~m winner && rec_on then
            Telemetry.Recorder.instant recorder nid_drop !slots winner.id;
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
          time := !time +. sts.(winner.id);
          success_airtime := !success_airtime +. sts.(winner.id);
          if rec_on then
            Telemetry.Recorder.instant recorder nid_success !slots winner.id
        end
      end
      else begin
        assert (ntx > 1);
        (* Overlapping frames hold the channel for the longest collider's
           Tc (equal to the common Tc on the degenerate subspace). *)
        let tc_busy = ref 0. in
        for k = 0 to ntx - 1 do
          let nd = nodes.(tx.(k)) in
          if rec_on then
            Telemetry.Recorder.instant recorder nid_collision !slots nd.id;
          if fail ~retry_limit ~m nd && rec_on then
            Telemetry.Recorder.instant recorder nid_drop !slots nd.id;
          if stc.(nd.id) > !tc_busy then tc_busy := stc.(nd.id)
        done;
        time := !time +. !tc_busy;
        collision_airtime := !collision_airtime +. !tc_busy
      end;
      if bianchi_ticks then
        (* Markov-chain convention: the busy virtual slot also ticks the
           frozen stations' counters (transmitters are at 0 and resample
           below; their fresh counter first ticks in the next slot).  The
           chain has no AIFS state, so the tick applies to backoff
           counters only. *)
        for i = 0 to n - 1 do
          let nd = nodes.(i) in
          if nd.counter > 0 then nd.counter <- nd.counter - 1
        done;
      for k = 0 to ntx - 1 do
        let nd = nodes.(tx.(k)) in
        nd.counter <- draw_backoff nd
      done;
      (* Every node heard the busy period and defers AIFS slots before
         resuming its countdown. *)
      if has_aifs then
        for i = 0 to n - 1 do
          if aifs.(i) > 0 then nodes.(i).defer <- aifs.(i)
        done
    end
  done;
  let elapsed = !time in
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
          tau_hat = float_of_int attempts /. float_of_int !slots;
          p_hat =
            (if attempts = 0 then 0.
             else float_of_int collisions /. float_of_int attempts);
          payoff_rate =
            ((float_of_int successes *. params.gain)
            -. (float_of_int nd.frames *. params.cost))
            /. elapsed;
          throughput =
            float_of_int successes *. spayload.(nd.id) /. elapsed;
        })
      nodes
  in
  let airtime =
    {
      idle_fraction = !idle_airtime /. elapsed;
      success_fraction = !success_airtime /. elapsed;
      collision_fraction = !collision_airtime /. elapsed;
      error_fraction = !error_airtime /. elapsed;
    }
  in
  let result =
    {
      time = elapsed;
      slots = !slots;
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
    (float_of_int !slots);
  Telemetry.Registry.emit telemetry "run_summary" (fun () ->
      let total_successes =
        Array.fold_left (fun acc (s : node_stats) -> acc + s.successes) 0
          per_node
      in
      let share (s : node_stats) =
        if total_successes = 0 then 0.
        else float_of_int s.successes /. float_of_int total_successes
      in
      [
        ("sim", Telemetry.Jsonx.String "slotted");
        ("n", Telemetry.Jsonx.Int n);
        ("seed", Telemetry.Jsonx.Int seed);
        ("time", Telemetry.Jsonx.Float elapsed);
        ("slots", Telemetry.Jsonx.Int !slots);
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
