(** The paper's utility model (Sec. IV and VI.A).

    Node i's payoff rate ("expected gain per unit time") is

    u_i = τ_i·((1−p_i)·g − e) / T̄slot                      (single-hop)
    u_i = τ_i·((1−p_i)·p_hn·g − e) / T̄slot                 (multi-hop)

    where g is the gain of a delivered packet, e the energy cost of an
    attempt, and p_hn ∈ (0, 1] the hidden-node degradation factor: a
    fraction 1 − p_hn of transmissions that survive contention within
    carrier-sense range still collide at the receiver because of hidden
    terminals.  The single-hop form is the p_hn = 1 special case.

    Stage and discounted utilities follow Definition 1:
    U_i^s = u_i·T and U_i = Σ_k δ^k·U_i^s = u_i·T/(1−δ) for a profile held
    forever. *)

val rates : ?p_hn:float -> Params.t -> taus:float array -> ps:float array ->
  float array
(** Per-node payoff rates u_i for a solved profile.  [p_hn] defaults to 1
    and must lie in (0, 1]. *)

val rate_of_node :
  ?p_hn:float -> Params.t -> slot_time:float -> tau:float -> p:float -> float
(** One node's u_i given an externally computed mean slot time (used by the
    multi-hop model, where each node sees its own local T̄slot). *)

val rate_of_strategy :
  ?p_hn:float -> Params.t -> slot_time:float -> tau:float -> p:float ->
  frames:int -> float
(** TXOP-aware payoff rate: a successful access delivers [frames] frames
    (gain k·g, cost k·e) while a collision wastes a single frame (cost e),
    so u = τ·((1−p)·p_hn·k·g − e·(1 + (1−p)(k−1))) / T̄slot.  [frames = 1]
    delegates to {!rate_of_node} (bit-identical). *)

val stage : Params.t -> float -> float
(** [stage params u] is the stage payoff U^s = u·T. *)

val discounted : Params.t -> float -> float
(** [discounted params u] is Σ_{k≥0} δ^k·u·T = u·T/(1−δ). *)

val discounted_tail : Params.t -> from_stage:int -> float -> float
(** Σ_{k≥from_stage} δ^k·u·T = δ^{from_stage}·u·T/(1−δ). *)

val normalized_global : Params.t -> float array -> float
(** The Y-axis of Figures 2–3: U/C with U = T/(1−δ)·Σ_i u_i and
    C = g·T/(σ(1−δ)), i.e. σ·Σ_i u_i/g — dimensionless. *)
