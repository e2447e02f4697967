(** Slot-accurate simulator of single-hop IEEE 802.11 DCF: the repo's one
    contention engine, for saturated stations or Poisson traffic.

    This is the packet-level ground truth the analytic model abstracts: every
    node independently draws a uniform backoff in [0, 2^j·W_i − 1], counters
    tick down together during idle slots and freeze while the channel is
    busy, the nodes whose counters hit zero transmit, exactly one transmitter
    means success (channel busy Ts), two or more mean collision (busy Tc,
    colliders advance their backoff stage up to m).  Since every node hears
    every other, the simulation advances per *virtual slot*, making runs of
    millions of slots cheap.

    It plays the role NS-2 plays in the paper's Sec. VII.A: regenerating the
    simulated columns of Tables II and III and validating τ, p and payoff
    against the Markov-chain model, whose stations are saturated (always
    hold a packet).  With [arrival_rates] the same loop serves Poisson
    arrivals into per-node queues, the below-saturation question of the
    [load] bench. *)

type config = {
  params : Dcf.Params.t;
  cws : int array;     (** per-node initial contention window *)
  duration : float;    (** simulated seconds *)
  seed : int;
}

type queue_stats = {
  arrivals : int;             (** packets that reached the queue *)
  backlog : int;              (** packets still queued at the horizon *)
  mean_sojourn : float;       (** arrival → end of delivery, s (delivered only) *)
  mean_queue_length : float;  (** time-averaged queue length *)
  busy_fraction : float;      (** fraction of time with a non-empty queue *)
}
(** A node's queue under Poisson traffic.  Every packet that arrived was
    delivered, dropped at the retry limit or is still queued:
    [arrivals = successes + drops + backlog]. *)

type node_stats = {
  attempts : int;      (** channel accesses attempted *)
  successes : int;
      (** frames delivered ([txop_frames] per winning access; equals the
          winning accesses on the degenerate subspace) *)
  collisions : int;    (** accesses that collided *)
  drops : int;
      (** packets discarded after exhausting the retry limit (0 when
          simulating the paper's infinite-retry chain) *)
  tau_hat : float;
      (** attempts per virtual slot — estimates τ_i; 0 when no slot
          passed *)
  p_hat : float;       (** collisions / attempts — estimates p_i *)
  payoff_rate : float;
      (** (delivered frames·g − transmitted frames·e) / time — estimates
          u_i; frames transmitted = attempts on the degenerate subspace *)
  throughput : float;  (** payload airtime fraction delivered by this node *)
  queue : queue_stats option;  (** [None] for saturated stations *)
}

type airtime = {
  idle_fraction : float;       (** fraction of elapsed time the channel idled *)
  success_fraction : float;    (** fraction occupied by successful frames (Ts) *)
  collision_fraction : float;  (** fraction occupied by collisions (Tc) *)
  error_fraction : float;
      (** fraction occupied by fully transmitted frames lost to channel
          noise (Ts each — the whole frame went out, no ACK came back);
          0 unless [per] > 0 *)
}
(** Channel airtime decomposition, accumulated incrementally during the
    run.  The four fractions sum to 1 up to rounding; under Poisson
    traffic the idle fraction includes the time every queue was empty. *)

type result = {
  time : float;        (** simulated time actually elapsed, s *)
  slots : int;
      (** number of virtual slots; under Poisson traffic only contention
          slots count, those in which some node had a packet queued *)
  per_node : node_stats array;
  total_throughput : float;  (** S: summed payload fraction *)
  welfare_rate : float;      (** Σ_i payoff_rate *)
  airtime : airtime;
}

val run :
  ?telemetry:Telemetry.Registry.t ->
  ?bianchi_ticks:bool -> ?retry_limit:int -> ?per:float ->
  ?strategies:Dcf.Strategy_space.t array ->
  ?arrival_rates:float array ->
  config -> result
(** Simulate until [duration] simulated seconds have elapsed.

    Without [arrival_rates] every station is saturated: it always holds a
    packet, and draws its next backoff as soon as one leaves.  With
    [arrival_rates] (packets/s per node, 0 for a silent node) packets
    arrive at node i as a Poisson process of rate [arrival_rates.(i)] into
    a FIFO queue, and only nodes with a queued packet contend:
    - a node's first draw is its first inter-arrival, not a backoff;
    - each virtual slot first queues every arrival that is due, in id
      order; a packet reaching an empty queue schedules the next arrival,
      then waits the node's full AIFS and a fresh stage-0 backoff;
    - an arrival due before the idle run ends cuts it short: ⌈gap/σ⌉
      idle slots (at least one) pass and the slot is looked at again;
    - a delivered packet leaves its queue as its frame starts and its
      sojourn ends with the frame; a drop at the retry limit discards the
      head-of-line packet, a channel error keeps it queued;
    - a node whose queue runs empty draws no backoff until its next
      arrival, and while every queue is empty the clock jumps to the next
      arrival.
    Each node's {!queue_stats} is in its [queue] field.  τ̂ then counts
    attempts per contention slot ([slots]), whether or not that node had
    a packet queued in it.  The run summary of a Poisson run carries
    ["traffic":"poisson"].

    [strategies] gives each node its full (CW, AIFS, TXOP, rate) strategy;
    each entry's [cw] must agree with [cws] (the CW array stays the
    config's source of truth).  AIFS adds defer slots consumed before the
    backoff counter after every busy period; TXOP sends
    [txop_frames] frames per winning access (successes and frame costs
    count frames, collisions still cost one); rate scales the payload
    airtime per node.  Omitting [strategies] — or passing only degenerate
    ones — runs the exact CW-only operation sequence, bit-identically.

    While {!Telemetry.Recorder.default} is enabled, every outcome is a
    flight-recorder instant (a = virtual slot, counting from 1; b = node):
    [slotted.success] per winning access, [slotted.collision] per
    collider, [slotted.channel_error] per frame lost to noise, and
    [slotted.drop] after a failure that exhausted the retry limit.

    Every run emits a ["run_summary"] telemetry event on [telemetry]
    (default: the global registry) carrying the airtime fractions, the
    per-node success shares and the Jain fairness of the throughput
    allocation — the per-station channel metrics selfishness detectors
    key on.

    [per] is a packet error rate from channel noise: a transmission that
    wins contention is still lost with this probability (treated as a
    failure by the backoff machinery, as real DCF cannot tell noise from
    collision).  The corrupted frame is transmitted in full, so it holds
    the channel for Ts (tallied in [error_fraction]) and the recorder logs
    a [slotted.channel_error] rather than a [slotted.collision].  Default 0
    — the paper's perfect channel.  Analytically this is the same
    multiplicative factor as the hidden-node degradation p_hn of
    Sec. VI.A, so the validation tests compare against
    [Utility.rates ~p_hn:(1−per)].

    [retry_limit] is the number of retransmissions before a packet is
    discarded (real DCF uses 4–7; default: unlimited, matching the paper's
    chain, whose stage m retries forever).  A drop resets the backoff stage
    just like a success, and the next queued packet (at once, for a
    saturated station) starts at stage 0.

    [bianchi_ticks] selects the backoff-freeze semantics.  [false]
    (default) is the real protocol: counters freeze during busy periods.
    [true] is the Markov chain's convention: every virtual slot — busy ones
    included — decrements the counters of the non-transmitting stations, so
    the simulation matches eq. 2-3 exactly.  The gap between the two modes
    (a few percent on τ) is precisely the known accuracy limit of Bianchi's
    model, which the validation tests pin down.

    @raise Invalid_argument on an empty network, a duration that is not
    finite and positive, a window < 1, a [per] outside [0, 1) or NaN, a
    negative [retry_limit], or [arrival_rates] of the wrong length or
    with a rate that is negative, NaN or infinite.  Under Poisson traffic
    it also refuses [txop_frames > 1] (the airtime of a burst cut short by
    an emptied queue is not modelled) and [bianchi_ticks] (the chain's
    convention is defined for saturated stations). *)

val estimates :
  ?telemetry:Telemetry.Registry.t ->
  ?strategies:Dcf.Strategy_space.t array -> config -> Estimate.t array
(** One {!run} folded into per-node {!Estimate.t} records: τ̂ and p̂ come
    straight from the per-node counters and the estimated mean virtual slot
    is elapsed time over virtual slots.  The payoff oracle's [Sim_slotted]
    backend. *)

val payoff_oracle :
  params:Dcf.Params.t -> n:int -> duration:float -> seed:int -> int -> float
(** [payoff_oracle ~params ~n ~duration ~seed w] measures a node's payoff
    rate with all [n] nodes on window [w] — a drop-in, noisy
    {!Macgame.Search.oracle} backend (the Û_l = (n_s·g − n_e·e)/t_m
    measurement of Sec. V.C).  Fresh seed per window probe. *)
