type config = {
  params : Dcf.Params.t;
  cws : int array;
  arrival_rates : float array;
  duration : float;
  seed : int;
}

type node_stats = {
  arrivals : int;
  delivered : int;
  backlog : int;
  mean_sojourn : float;
  mean_queue_length : float;
  busy_fraction : float;
  payoff_rate : float;
}

type result = {
  time : float;
  per_node : node_stats array;
  total_delivered : int;
  welfare_rate : float;
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

  let[@inline] pop q =
    let x = Float.Array.get q.buf q.head in
    q.head <- (q.head + 1) land (Float.Array.length q.buf - 1);
    q.len <- q.len - 1;
    x
end

(* The per-node float state, an all-float record so that it is stored flat
   and updates do not box. *)
type clocks = {
  mutable next_arrival : float;   (* infinity when rate = 0 *)
  mutable sojourn_total : float;
  mutable queue_area : float;     (* ∫ queue length dt *)
  mutable busy_time : float;      (* ∫ 1(queue non-empty) dt *)
}

type node = {
  window : int;
  rate : float;
  rng : Prelude.Rng.t;
  queue : Fifo.t;                 (* arrival timestamps *)
  clocks : clocks;
  mutable stage : int;
  mutable counter : int;
  mutable attempts : int;
  mutable delivered : int;
  mutable arrivals : int;
}

let draw_backoff node =
  node.counter <- Prelude.Rng.int node.rng (node.window lsl node.stage)

let[@inline] schedule_arrival node now =
  node.clocks.next_arrival <-
    (if node.rate <= 0. then infinity
     else now +. Prelude.Rng.exponential node.rng node.rate)

(* Advance the clock from [now] to [t] > [now], charging the queue
   integrals of the [nactive] nodes listed in [active] (every other queue
   is empty).  Returns the new clock. *)
let[@inline] advance nodes active nactive now t =
  let dt = t -. now in
  for k = 0 to nactive - 1 do
    let nd = nodes.(active.(k)) in
    let len = nd.queue.len in
    if len > 0 then begin
      nd.clocks.queue_area <- nd.clocks.queue_area +. (float_of_int len *. dt);
      nd.clocks.busy_time <- nd.clocks.busy_time +. dt
    end
  done;
  t

let run { params; cws; arrival_rates; duration; seed } =
  let n = Array.length cws in
  if n = 0 then invalid_arg "Unsaturated.run: empty network";
  if Array.length arrival_rates <> n then
    invalid_arg "Unsaturated.run: arrival_rates length mismatch";
  (* Written so that NaN fails them. *)
  if not (duration > 0.) then
    invalid_arg "Unsaturated.run: duration must be positive";
  if not (Float.is_finite duration) then
    invalid_arg "Unsaturated.run: duration must be finite";
  Array.iter
    (fun w -> if w < 1 then invalid_arg "Unsaturated.run: window must be >= 1")
    cws;
  Array.iter
    (fun r ->
      if r < 0. then invalid_arg "Unsaturated.run: negative arrival rate";
      if not (Float.is_finite r) then
        invalid_arg "Unsaturated.run: arrival rate must be finite")
    arrival_rates;
  let m = params.max_backoff_stage in
  let sigma = params.sigma in
  let timing = Dcf.Timing.of_params params in
  let master = Prelude.Rng.create seed in
  let nodes =
    Array.init n (fun i ->
        let node =
          {
            window = cws.(i);
            rate = arrival_rates.(i);
            rng = Prelude.Rng.split master;
            queue = Fifo.create ();
            clocks =
              {
                next_arrival = 0.;
                sojourn_total = 0.;
                queue_area = 0.;
                busy_time = 0.;
              };
            stage = 0;
            counter = 0;
            attempts = 0;
            delivered = 0;
            arrivals = 0;
          }
        in
        schedule_arrival node 0.;
        node)
  in
  (* The clock is a local that no closure captures, so it stays unboxed;
     the nodes with a non-empty queue and, among them, the transmitters
     of the current slot are gathered in ascending id order into [active]
     and [tx]. *)
  let time = ref 0. in
  let active = Array.make n 0 and tx = Array.make n 0 in
  while !time < duration do
    (* Pop arrivals due by now into queues (a packet reaching the head of
       an idle queue starts a fresh stage-0 backoff), gather the active
       nodes and find the next arrival. *)
    let nactive = ref 0 and next_arrival = ref infinity in
    for i = 0 to n - 1 do
      let nd = nodes.(i) in
      while nd.clocks.next_arrival <= !time do
        let was_empty = nd.queue.len = 0 in
        Fifo.push nd.queue nd.clocks.next_arrival;
        nd.arrivals <- nd.arrivals + 1;
        schedule_arrival nd nd.clocks.next_arrival;
        if was_empty then begin
          nd.stage <- 0;
          draw_backoff nd
        end
      done;
      if nd.queue.len > 0 then begin
        active.(!nactive) <- i;
        incr nactive
      end;
      if nd.clocks.next_arrival < !next_arrival then
        next_arrival := nd.clocks.next_arrival
    done;
    let nactive = !nactive and next_arrival = !next_arrival in
    if nactive = 0 then
      (* Idle network: jump to the next arrival (or the horizon); every
         queue is empty, so no integral grows. *)
      time := if next_arrival < duration then next_arrival else duration
    else begin
      let idle_slots = ref max_int in
      for j = 0 to nactive - 1 do
        let c = nodes.(active.(j)).counter in
        if c < !idle_slots then idle_slots := c
      done;
      let idle_slots = !idle_slots in
      let arrival_slots =
        if next_arrival = infinity then max_int
        else
          let s =
            int_of_float (Float.ceil ((next_arrival -. !time) /. sigma))
          in
          if s > 0 then s else 0
      in
      (* An arrival landing mid-countdown cuts the idle run short: burn
         that many idle slots (at least one) and reconsider with the newly
         active node included.  Otherwise the slot after the idle run is a
         transmission slot. *)
      let transmit = arrival_slots >= idle_slots in
      let k =
        if transmit then idle_slots
        else if arrival_slots > 1 then arrival_slots
        else 1
      in
      let ntx = ref 0 in
      for j = 0 to nactive - 1 do
        let nd = nodes.(active.(j)) in
        nd.counter <- nd.counter - k;
        if nd.counter = 0 then begin
          tx.(!ntx) <- active.(j);
          incr ntx
        end
      done;
      time :=
        advance nodes active nactive !time (!time +. (float_of_int k *. sigma));
      if transmit && !time < duration then begin
        let ntx = !ntx in
        if ntx = 1 then begin
          let winner = nodes.(tx.(0)) in
          winner.attempts <- winner.attempts + 1;
          let arrived = Fifo.pop winner.queue in
          time := advance nodes active nactive !time (!time +. timing.ts);
          winner.delivered <- winner.delivered + 1;
          winner.clocks.sojourn_total <-
            winner.clocks.sojourn_total +. (!time -. arrived);
          winner.stage <- 0;
          if winner.queue.len > 0 then draw_backoff winner
        end
        else begin
          assert (ntx > 1);
          for j = 0 to ntx - 1 do
            let nd = nodes.(tx.(j)) in
            nd.attempts <- nd.attempts + 1;
            let s = nd.stage + 1 in
            nd.stage <- (if s < m then s else m);
            draw_backoff nd
          done;
          time := advance nodes active nactive !time (!time +. timing.tc)
        end
      end
    end
  done;
  let elapsed = !time in
  let per_node =
    Array.map
      (fun nd ->
        {
          arrivals = nd.arrivals;
          delivered = nd.delivered;
          backlog = nd.queue.len;
          mean_sojourn =
            (if nd.delivered = 0 then 0.
             else nd.clocks.sojourn_total /. float_of_int nd.delivered);
          mean_queue_length = nd.clocks.queue_area /. elapsed;
          busy_fraction = nd.clocks.busy_time /. elapsed;
          payoff_rate =
            ((float_of_int nd.delivered *. params.gain)
            -. (float_of_int nd.attempts *. params.cost))
            /. elapsed;
        })
      nodes
  in
  {
    time = elapsed;
    per_node;
    total_delivered =
      Array.fold_left (fun acc (s : node_stats) -> acc + s.delivered) 0 per_node;
    welfare_rate =
      Array.fold_left
        (fun acc (s : node_stats) -> acc +. s.payoff_rate)
        0. per_node;
  }

let saturation_rate (params : Dcf.Params.t) ~n ~w =
  let tau, p = Dcf.Solver.solve_homogeneous params ~n ~w in
  let metrics = Dcf.Metrics.of_taus params (Array.make n tau) in
  tau *. (1. -. p) /. metrics.slot_time

let utilization params ~n ~w ~arrival_rate =
  if arrival_rate < 0. then invalid_arg "Unsaturated.utilization: negative rate";
  if not (Float.is_finite arrival_rate) then
    invalid_arg "Unsaturated.utilization: rate must be finite";
  arrival_rate /. saturation_rate params ~n ~w
