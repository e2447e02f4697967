(** Observation of other players' contention windows.

    TFT requires each player to measure every other player's CW (the paper
    cites Kyasanur & Vaidya [3] for how: in promiscuous mode a node can
    count the idle slots a neighbour waits between transmissions, whose mean
    is (W−1)/2 at backoff stage 0).  This module provides the observation
    channel of the repeated-game engine: perfect, multiplicatively noisy,
    or a per-stage sampling model of the backoff estimator.

    A player always observes its own window exactly. *)

type t

val perfect : t
(** Every window observed exactly. *)

val noisy : rng:Prelude.Rng.t -> rel_stddev:float -> t
(** Each foreign window is perturbed by Gaussian relative noise with the
    given standard deviation, rounded, and clamped to ≥ 1. *)

val sampling : rng:Prelude.Rng.t -> samples_per_stage:int -> t
(** Backoff-counting estimator: for a neighbour with true window W the
    observer sees [samples_per_stage ≥ 1] uniform draws on [0, W−1] and
    reports Ŵ = round(2·mean + 1), clamped to ≥ 1.  Standard error decays
    as W/√(12·k), so longer stages (more observed transmissions) give
    sharper estimates — the quantitative motivation for GTFT's tolerance. *)

val observe : t -> me:int -> int array -> int array
(** [observe t ~me cws] is the observation vector reported to player [me]
    about the true profile [cws].  Element [me] is exact. *)

val estimate_error_stddev : w:int -> samples:int -> float
(** Analytic standard deviation of the {!sampling} estimator's error:
    √(W²−1)/√(3·k)… specifically 2·σ_backoff/√k with σ²_backoff =
    (W²−1)/12.  Used by tests and by the GTFT tolerance ablation. *)

(** {2 Multi-knob estimators}

    The (CW, AIFS, TXOP, rate) strategy space widens what a promiscuous
    observer must measure.  AIFS deviation rides on the same idle-slot
    counting as the window estimator; TXOP deviation is deterministic per
    observed burst and only needs coverage. *)

val aifs_estimate :
  rng:Prelude.Rng.t -> w:int -> aifs:int -> samples:int -> float
(** One empirical run of the AIFS estimator: the observer measures the
    idle gap before each of [samples ≥ 1] transmissions of a neighbour
    with true window [w] and AIFS [aifs], then subtracts the known
    backoff mean (W−1)/2.  Unbiased for the true AIFS. *)

val aifs_estimate_stddev : w:int -> samples:int -> float
(** Analytic standard deviation of {!aifs_estimate}:
    √((W²−1)/12k) — half the rate constant of the window estimator,
    because the backoff mean is subtracted rather than doubled. *)

val txop_longest_burst :
  rng:Prelude.Rng.t -> txop:int -> p_observe:float -> accesses:int -> int
(** Longest burst an observer catching each channel access independently
    with probability [p_observe] sees over [accesses ≥ 1] accesses of a
    neighbour bursting [txop ≥ 1] frames per access; [0] if it caught
    none.  Burst length is deterministic, so a single observed access
    reveals the neighbour's TXOP exactly. *)
