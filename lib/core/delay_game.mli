(** Delay-aware variant of the MAC game (the Sec. VIII extension).

    The paper concedes that its generic utility "does not take into account
    the delay and other factors.  As a result, the CW value of NE may seem
    too long in some cases."  This module prices delay in: a delivered
    packet is worth g discounted by how long the node waited for it,

    u_i(γ) = τ_i·((1−p_i)·g/(1 + γ·D_i) − e) / T̄slot

    with D_i the node's mean access delay ({!Dcf.Delay}) and γ ≥ 0 the
    delay sensitivity in 1/seconds (γ = 0 recovers the paper's game; at
    γ·D = 1 a packet is worth half its nominal gain).

    The model's verdict on the paper's worry is itself interesting: in
    saturation the access delay D ≈ n·T̄slot/(n·τ(1−p)) is almost flat in
    the common window near the optimum (every node waits for the other
    n−1 regardless of W), and its minimum sits at the *throughput*-optimal
    window, slightly above the payoff-optimal one (which also prices the
    energy cost e).  So moderate delay sensitivity nudges the efficient NE
    *upward* toward the throughput peak — the "too long" NE window is not
    actually a delay problem — while extreme γ degenerates to maximal
    windows (when delay destroys all packet value, the rational move is to
    barely participate and save energy).

    τ, p, T̄slot and S come from the {!Oracle}'s uniform view, so the
    delay-aware game inherits backend pluggability and memoization; only
    the delay pricing itself stays analytic ({!Dcf.Delay} is closed-form
    in those estimates). *)

val payoff : Oracle.t -> gamma:float -> n:int -> w:int -> float
(** Per-node delay-aware payoff rate of the uniform profile (w, …, w). *)

val efficient_cw : Oracle.t -> gamma:float -> n:int -> int
(** The delay-aware efficient NE window: argmax of {!payoff} over
    [1, cw_max].  Decreasing in [gamma]; equals
    {!Equilibrium.efficient_cw} at [gamma = 0]. *)

type tradeoff_point = {
  gamma : float;
  w_star : int;       (** delay-aware efficient window *)
  delay : float;      (** mean access delay at it, s *)
  throughput : float; (** network throughput S at it *)
}

val tradeoff : Oracle.t -> n:int -> gammas:float array -> tradeoff_point array
(** The delay/throughput frontier traced by sweeping γ — the ablation
    behind the [delay] bench. *)
