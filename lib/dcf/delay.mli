(** Medium-access delay analysis (the Sec. VIII extension).

    The paper's utility ignores delay and admits very large NE windows; this
    module derives the saturation access-delay quantities needed to price
    delay into the game.  All results are per-node, conditioned on a solved
    profile (τ_i, p_i) and the network's mean virtual-slot length T̄slot.

    In saturation a node delivers a packet with probability τ_i(1−p_i) per
    virtual slot, so successful deliveries form a renewal process and the
    mean head-of-line access delay is T̄slot / (τ_i·(1−p_i)). *)

type t = {
  mean_delay : float;
      (** mean time between a node's successful deliveries, s *)
  attempts_per_packet : float;
      (** expected transmission attempts per delivered packet: 1/(1−p) *)
  backoff_slots_per_packet : float;
      (** expected backoff slots counted down per delivered packet, from the
          stage-by-stage chain structure *)
}

val of_node : slot_time:float -> tau:float -> p:float -> w:int -> m:int -> t
(** Delay view of one node.  Requires [p < 1] (a node that never succeeds
    has infinite delay — raises [Invalid_argument]). *)

val of_profile : Params.t -> taus:float array -> ps:float array -> cws:int array -> t array
(** Delay view of every node in a solved heterogeneous profile. *)

val expected_backoff_slots : w:int -> m:int -> p:float -> float
(** E[total backoff counted down per packet]:
    Σ_{j<m} p^j·(2^j·w − 1)/2 + p^m/(1−p)·(2^m·w − 1)/2 — each reached
    stage j contributes its mean drawn counter. *)

val drop_probability : p:float -> retry_limit:int -> float
(** With a finite retry limit R (real DCF discards after R+1 attempts;
    the paper's chain retries forever), the per-packet drop probability is
    p^(R+1). *)
