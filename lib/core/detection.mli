(** Detection-theoretic design of the GTFT tolerance (linking [3] to
    Sec. IV).

    A TFT/GTFT player flags neighbour j as a cheater when its estimated
    window Ŵ_j falls below β·W_exp, where W_exp is the window everyone is
    supposed to play.  With the backoff-counting estimator
    ({!Observer.sampling}), Ŵ is approximately Normal(W_true, σ²) with
    σ = 2·√((W_true²−1)/12k) after k observed backoffs, so both error rates
    of the trigger have closed forms:

    - false positive: P(Ŵ < β·W_exp | W_true = W_exp) — punishing an
      honest neighbour, which under plain TFT collapses the network;
    - detection: P(Ŵ < β·W_exp | W_true = c·W_exp) for a cheater playing a
      fraction c < β of the expected window.

    GTFT's averaging over r0 stages multiplies the effective sample count
    by r0, which is how (r0, β) should be chosen: make the false-positive
    rate negligible at the noise level while still detecting the cheats
    that matter. *)

val false_positive_rate : w_exp:int -> samples:int -> beta:float -> float
(** P(flag an honest node).  [beta ∈ (0, 1]], [samples ≥ 1]. *)

val detection_rate :
  w_true:int -> w_exp:int -> samples:int -> beta:float -> float
(** P(flag a node whose true window is [w_true]). *)

val required_samples : w_exp:int -> beta:float -> max_fp:float -> int
(** Smallest k with [false_positive_rate ≤ max_fp] ([max_fp ∈ (0, 0.5)]).
    Closed form from the normal quantile, then adjusted to the exact
    integer threshold. *)

type design = {
  beta : float;
  samples_per_stage : int;  (** k needed in a single stage *)
  r0 : int;                 (** GTFT stages to average when only
                                [per_stage] samples arrive per stage *)
  false_positive : float;   (** achieved FP rate *)
  detection : float;        (** achieved detection of the target cheat *)
}

val design_gtft :
  w_exp:int -> cheat_factor:float -> per_stage:int -> max_fp:float ->
  min_detection:float -> design option
(** Find the cheapest tolerance meeting both error budgets: over
    β ∈ (cheat_factor, 1), compute the r0 (averaging depth) that makes the
    false-positive budget hold with [per_stage] backoff observations per
    stage, require the cheat at [cheat_factor]·w_exp to be caught with
    probability ≥ [min_detection], and return the feasible design with the
    smallest r0 (ties broken toward the larger β).  [None] if nothing
    works within r0 ≤ 64. *)

val empirical_rates :
  rng:Prelude.Rng.t -> trials:int -> w_true:int -> w_exp:int -> samples:int ->
  beta:float -> float
(** Monte-Carlo flag rate of the exact (non-Gaussian) estimator — used by
    the tests to validate the closed forms. *)

(** {2 Multi-knob deviation detection}

    With (CW, AIFS, TXOP, rate) strategies a cheater has more knobs than
    the contention window; each needs its own trigger.  AIFS deviation is
    estimated from the same idle-slot counts as the window ({!Observer.aifs_estimate}),
    so its error rates have the same normal closed forms.  TXOP deviation
    is deterministic per observed burst — detection is purely a coverage
    question. *)

val aifs_false_positive_rate :
  w:int -> aifs_exp:int -> samples:int -> delta:float -> float
(** P(flag an honest node): P(âifs < aifs_exp − delta) for a neighbour
    whose true AIFS is [aifs_exp], with window [w], after [samples ≥ 1]
    observed accesses.  [delta ≥ 0] is the trigger margin in slots. *)

val aifs_detection_rate :
  w:int -> aifs_true:int -> aifs_exp:int -> samples:int -> delta:float ->
  float
(** P(flag a node defering [aifs_true < aifs_exp] slots). *)

val txop_detection_rate :
  txop_true:int -> txop_exp:int -> p_observe:float -> accesses:int -> float
(** P(catch a burst longer than [txop_exp]) when each of [accesses ≥ 1]
    channel accesses is observed independently with probability
    [p_observe]: [0] for an honest node, [1 − (1−p_observe)^accesses]
    for a cheater — burst length is deterministic, so one observed
    access convicts. *)

val empirical_aifs_rate :
  rng:Prelude.Rng.t -> trials:int -> w:int -> aifs_true:int -> aifs_exp:int ->
  samples:int -> delta:float -> float
(** Monte-Carlo flag rate of the exact AIFS estimator — validates the
    closed form in the tests. *)

val punishment_stages :
  gain:float -> loss:float -> discount:float -> int option
(** Banchs-style punishment sizing: the smallest number of punishment
    stages L making a detected deviation unprofitable, i.e.
    Σ_{k=1..L} δ^k·[loss] ≥ [gain], where [gain] is the cheater's
    one-stage payoff gain and [loss] its per-stage payoff loss while
    punished.  [Some 0] when there is nothing to deter; [None] when even
    perpetual punishment cannot recoup the gain (δ too small). *)
