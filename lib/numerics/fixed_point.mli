(** Damped fixed-point iteration on float vectors.

    The heterogeneous Bianchi model couples 2n unknowns (τ_1…τ_n, p_1…p_n)
    through a contraction-like map; damped Picard iteration converges
    reliably for all parameter ranges the experiments use. *)

type outcome = {
  value : float array;  (** the (approximate) fixed point *)
  iterations : int;     (** map evaluations actually performed *)
  residual : float;     (** max |f(x) − x| at the final iterate *)
  converged : bool;     (** whether [residual ≤ tol] *)
}

val solve :
  ?telemetry:Telemetry.Registry.t ->
  ?damping:float -> ?tol:float -> ?max_iter:int ->
  (float array -> float array) -> float array -> outcome
(** [solve f x0] iterates [x ← (1−λ)·x + λ·f x] from [x0] until the
    max-norm {e undamped defect} [|f x − x|] falls below [tol] (default
    1e-12) or [max_iter] map evaluations (default 10_000) are spent.
    Convergence is judged on the defect, not the damped step — the step is
    only [λ·defect], so testing it would loosen the effective tolerance by
    [1/λ] (2× at the default).  On convergence the returned [value] is the
    iterate at which the defect was measured, with no trailing damped step
    applied.  A non-finite defect terminates the solve as non-converged.
    [damping] λ defaults to 0.5 and must be in (0, 1].  [f] must preserve
    the vector length.  Each call's result is read before the next call,
    so [f] may return one buffer every time, and the returned [value],
    converged or not, is the argument of the last call, with the same
    bits.

    The input vector is not mutated.

    Every solve runs inside a ["fixed_point.solve"] flight-recorder span
    (payload: vector length, [max_iter]) and emits a
    ["solver_convergence"] event on [telemetry] (default: the
    global registry) recording iterations, the final residual, damping and
    convergence.  When a sink is attached, a ["residual_trajectory"] event
    carries the per-iteration residuals (capped at 512 entries); with no
    sink, the trajectory is never materialised. *)
