(** Short-sighted and malicious deviation analysis (Sec. V.D–V.E).

    A deviant s with personal discount factor δ_s plays W_s < W_c* while the
    other n−1 players take [react_stages] = m ≥ 1 stages to notice and
    punish via TFT.  Its total payoff is

    U_s = (1−δ_s^m)/(1−δ_s) · U_s^stage(W_c★,…,W_s,…,W_c★)
        + δ_s^m/(1−δ_s) · U_s^stage(W_s,…,W_s)

    compared with honest play U_s⁰ = U^stage(W_c★,…,W_c★)/(1−δ_s).  The
    module evaluates both, optimises W_s for a given δ_s, and finds the
    critical patience above which honesty wins — reconciling our result
    with [2]'s network-collapse finding, as Sec. VIII discusses.

    All stage payoffs are profile evaluations through the {!Oracle}; the
    bisections and exhaustive scans below revisit the same handful of
    profiles at every δ_s probe, so after the first sweep every evaluation
    is a memo hit. *)

type stage_payoffs = {
  deviant : float;    (** deviant's stage payoff during the free ride *)
  conformer : float;  (** a conformer's stage payoff during the free ride *)
  uniform_w : float;  (** everyone's stage payoff once all play W_s *)
  uniform_star : float;  (** everyone's stage payoff at (W_c★, …, W_c★) *)
}

val stage_payoffs : Oracle.t -> n:int -> w_star:int -> w_dev:int -> stage_payoffs
(** Stage payoffs U^s = u·T of the three relevant profiles. *)

val deviant_total :
  Oracle.t -> n:int -> w_star:int -> w_dev:int -> delta_s:float ->
  react_stages:int -> float
(** U_s above.  [delta_s ∈ [0, 1)], [react_stages ≥ 1]. *)

val honest_total :
  Oracle.t -> n:int -> w_star:int -> delta_s:float -> float
(** U_s⁰ = U^stage(W_c★)/(1−δ_s). *)

val best_deviation :
  Oracle.t -> n:int -> w_star:int -> delta_s:float -> react_stages:int ->
  int * float
(** The window W_s ∈ [1, W_c*] maximising {!deviant_total} and its value
    (exhaustive scan: with punishment the curve need not be unimodal). *)

val critical_discount :
  ?tol:float -> Oracle.t -> n:int -> w_star:int -> react_stages:int -> float
(** Smallest δ_s at which no *strict* deviation (W_s < W_c★) beats
    honesty: bisection on δ_s ↦ max_{W_s < W_c★} U_s − U_s⁰, which is
    decreasing in δ_s.  Returns 0 if honesty already wins at δ_s = 0 (or
    W_c★ = 1), and 1 if some deviation still pays at δ_s → 1. *)

val critical_discount_for :
  ?tol:float -> Oracle.t -> n:int -> w_star:int -> w_dev:int ->
  react_stages:int -> float
(** Smallest δ_s at which the *specific* deviation to [w_dev] stops paying.
    Because the payoff curve is nearly flat at the top (the robustness of
    Figures 2–3), deviating by a single window is almost free and
    {!critical_discount} can sit at 1; for a substantial deviation
    (say W_c★/2) this function shows the finite patience threshold that
    separates our regime from the network collapse of [2]. *)

(** {1 Coalitions}

    Theorem 2 establishes unilateral stability; these functions probe
    *coalition* deviations: k ≥ 1 colluders jointly undercut to W_s while
    the other n−k play W_c★ until TFT punishment kicks in after
    [react_stages].  The per-member accounting mirrors the single-deviant
    case, so the NE is coalition-proof for patient players exactly when
    {!coalition_gain} is non-positive for every k. *)

type coalition_stage = {
  member : float;    (** a colluder's stage payoff during the free ride *)
  outsider : float;  (** a conformer's stage payoff during the free ride *)
  punished : float;  (** everyone's stage payoff once TFT drags all to W_s *)
  honest : float;    (** everyone's stage payoff at (W_c★, …, W_c★) *)
}

val coalition_stage_payoffs :
  Oracle.t -> n:int -> w_star:int -> k:int -> w_dev:int -> coalition_stage
(** Stage payoffs of the three relevant profiles, via the multi-class
    solver.  Requires 1 ≤ k < n. *)

val coalition_gain :
  Oracle.t -> n:int -> w_star:int -> k:int -> w_dev:int ->
  delta_s:float -> react_stages:int -> float
(** Per-member gain over honest play; the NE resists the coalition when
    this is ≤ 0 for the coalition's best W_s. *)

val malicious_welfare :
  Oracle.t -> n:int -> w_mal:int -> float
(** Global payoff rate after TFT has dragged everyone to the malicious
    window [w_mal] (Sec. V.E): n·u(w_mal, …, w_mal).  Negative once
    [w_mal] falls below the break-even window — the network is paralysed. *)
