(** Channel-level metrics derived from a solved transmission-probability
    profile (Sec. III).

    With Ptr = 1 − Π_j(1−τ_j) the probability that a slot carries at least
    one transmission and Ps the probability it carries exactly one
    (conditioned on Ptr), the mean virtual slot length is

    T̄slot = (1−Ptr)·σ + Ptr·Ps·Ts + Ptr·(1−Ps)·Tc

    and the normalised saturation throughput is S = Ptr·Ps·E[P]/T̄slot. *)

type t = {
  p_tr : float;          (** P(≥1 transmission in a slot) *)
  p_s : float;           (** P(exactly one | ≥1) *)
  slot_time : float;     (** T̄slot, s *)
  throughput : float;    (** S, fraction of airtime carrying payload *)
  per_node_success : float array;
      (** per slot: P(node i transmits alone) = τ_i·Π_{j≠i}(1−τ_j) *)
  per_node_throughput : float array;
      (** node i's share of S *)
  idle_time : float;     (** (1−Ptr)·σ, the idle component of T̄slot *)
  success_time : float;  (** Ptr·Ps·Ts component of T̄slot *)
  collision_time : float;(** Ptr·(1−Ps)·Tc component of T̄slot *)
}

val of_taus : Params.t -> float array -> t
(** Metrics of the network whose solved profile is [taus]. *)

val idle_fraction : t -> float
(** Fraction of time the channel is idle. *)

val collision_fraction : t -> float
(** Fraction of time wasted in collisions. *)

val success_fraction : t -> float
(** Fraction of time in successful transmissions (payload plus protocol
    overhead).  The three fractions sum to 1. *)
