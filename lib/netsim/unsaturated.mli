(** Unsaturated single-hop DCF: Poisson arrivals and per-node queues, as a
    view of {!Slotted.run}[ ~arrival_rates], kept for its callers.

    The paper (like Bianchi's model) assumes saturation — every node always
    has a packet ready.  Here packets arrive at node i as a Poisson process
    of rate [arrival_rates.(i)], and a node contends only while its queue
    is non-empty (the rules are listed at {!Slotted.run}).  This view runs
    the CW-only subspace with unlimited retries and a perfect channel;
    call {!Slotted.run} directly for strategies, retry limits, channel
    noise, airtime or recorder instants under Poisson traffic.

    The interesting game-theoretic question it answers: how much does the
    contention window matter below saturation?  (Answer: hardly at all
    until the offered load approaches the saturation capacity — see the
    [load] bench.) *)

type config = {
  params : Dcf.Params.t;
  cws : int array;
  arrival_rates : float array;  (** packets/s per node, same length *)
  duration : float;
  seed : int;
}

type node_stats = {
  arrivals : int;
  delivered : int;
  backlog : int;             (** packets still queued at the horizon *)
  mean_sojourn : float;      (** arrival → delivery, s (delivered only) *)
  mean_queue_length : float; (** time-averaged queue length *)
  busy_fraction : float;     (** fraction of time with a non-empty queue *)
  payoff_rate : float;       (** (delivered·g − attempts·e)/time *)
}

type result = {
  time : float;
  per_node : node_stats array;
  total_delivered : int;
  welfare_rate : float;
}

val run : config -> result
(** @raise Invalid_argument as {!Slotted.run} does: on length mismatches,
    rates that are negative, infinite or NaN, windows < 1, or a duration
    that is not finite and positive. *)

val saturation_rate : Dcf.Params.t -> n:int -> w:int -> float
(** The per-node saturation departure rate τ(1−p)/T̄slot (packets/s) — the
    capacity against which an offered load should be compared. *)
