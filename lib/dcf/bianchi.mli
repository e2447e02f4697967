(** Closed forms of the per-node backoff Markov chain (Sec. III).

    The chain of node i has states (j, k): backoff stage j ∈ [0, m] with
    contention window 2^j·W_i, and backoff counter k.  Conditioned on a
    constant per-attempt collision probability p, the stationary transmission
    probability is (eq. 2, written in its singularity-free form)

    τ = 2 / (1 + W + p·W·Σ_{j=0}^{m−1} (2p)^j).

    This module also exposes the full stationary distribution so that tests
    can verify normalisation and the equivalence of the two published forms
    of eq. 2 (the (1−2p)-ratio form is singular at p = 1/2). *)

val tau_of_p : w:int -> m:int -> float -> float
(** [tau_of_p ~w ~m p] is the transmission probability of a node with
    initial window [w ≥ 1] and [m ≥ 0] doubling stages facing collision
    probability [p ∈ [0, 1]].  Decreasing in both [p] and [w]. *)

val check_chain : w:int -> m:int -> unit
(** Raises the [Invalid_argument] {!tau_of_p} raises for a window below 1
    or a negative stage count, so a solver can check each class once per
    solve and then evaluate {!tau_unchecked}. *)

val tau_unchecked : wf:float -> m:int -> float -> float
(** {!tau_of_p} without its checks: the same float operations, in the same
    order, on [wf = float_of_int w].  For a (w, m) that passed
    {!check_chain} and a p that is in [0, 1] by construction; it returns
    {!tau_of_p}'s bits there, and on a NaN p (which {!tau_of_p} lets
    through) a NaN. *)

val taus_unchecked_into :
  wfs:float array -> m:int -> float array -> float array -> unit
(** [taus_unchecked_into ~wfs ~m ps taus] sets [taus.(j)] to
    [tau_unchecked ~wf:wfs.(j) ~m ps.(j)] for every j of [ps]. *)

val dtau_dp : w:int -> m:int -> float -> float
(** [dtau_dp ~w ~m p] is the analytic derivative of {!tau_of_p} in [p]:
    with D(p) = 1 + W + W·Σ_{j=0}^{m−1} 2^j·p^(j+1) the value is
    −2·W·Σ_{j=0}^{m−1}(j+1)(2p)^j / D².  Always ≤ 0 (τ decreases in p).
    Since τ = 2/D this equals −W·S·τ²/2 with S = Σ_{j<m}(j+1)(2p)^j, the
    τ form {!Solver}'s Newton step evaluates from the τ it already
    holds. *)

val tau_of_p_ratio_form : w:int -> m:int -> float -> float
(** The paper's first printed form 2(1−2p)/((1−2p)(W+1)+pW(1−(2p)^m)).
    Equal to {!tau_of_p} everywhere except at the removable singularity
    p = 1/2, where it is NaN.  Exposed for the equivalence test only. *)

type stationary = {
  q00 : float;              (** mass of state (0,0) *)
  stage_heads : float array;(** q(j,0) for j = 0..m *)
  tau : float;              (** Σ_j q(j,0) *)
}

val stationary : w:int -> m:int -> float -> stationary
(** Full stationary solution of the chain at collision probability [p].
    The total mass Σ_{j,k} q(j,k) is 1 by construction; tests verify it by
    explicit summation. *)

val total_mass : w:int -> m:int -> stationary -> float
(** Σ_{j=0}^{m} Σ_{k=0}^{2^j·w−1} q(j,k), computed by explicit summation
    over stages (the within-stage sum has the closed form
    (2^j·w+1)/2·q(j,0)).  Should be 1. *)

val expected_backoff : w:int -> float
(** Mean backoff counter drawn at stage 0: (w−1)/2 slots.  Used by the CW
    observer. *)
