(** Damped Newton iteration for fixed-point problems [x = f x].

    Each iteration tries a full Newton step on the defect
    [h(x) = f(x) − x], delegated to a caller-supplied linear-step closure
    (so structured Jacobians — e.g. diagonal plus rank-one — can solve in
    O(n) instead of O(n³)).  A step is accepted only when it strictly
    shrinks the max-norm defect; a refused, singular, or non-finite step
    degrades to one damped sweep [x ← x + λ·(f x − x)].  A step closure
    that always refuses ([fun _ _ -> None]) therefore runs the plain
    damped fixed-point iteration, with its global convergence. *)

type outcome = {
  value : float array;     (** the (approximate) fixed point *)
  iterations : int;        (** total iterations (Newton + fallback) *)
  residual : float;        (** max |f(x) − x| at the final iterate *)
  converged : bool;        (** whether [residual ≤ tol] *)
  newton_steps : int;      (** accepted Newton steps *)
  fallback_steps : int;    (** damped fallback sweeps *)
}

val solve :
  ?telemetry:Telemetry.Registry.t ->
  ?damping:float -> ?tol:float -> ?max_iter:int ->
  ?lo:float -> ?hi:float ->
  step:(float array -> float array -> float array option) ->
  (float array -> float array) -> float array -> outcome
(** [solve ~step f x0] iterates from [x0] until the max-norm defect
    [|f x − x|] falls below [tol] (default 1e-12) or [max_iter]
    iterations (default 10_000) are spent.

    [step x defect] must return [Some delta] solving
    [(I − J(x))·delta = defect] where [J] is the Jacobian of [f] at [x]
    — i.e. the Newton update for the defect — or [None] when the system
    is singular or the caller cannot form it; [None], a non-finite
    [delta], and a candidate that fails to strictly reduce the defect all
    fall back to one damped sweep (damping λ default 0.5, in
    (0, 1]).  Convergence is judged on the undamped defect, not on the
    damped step (which is only [λ·defect]), and a converged [value] is
    the iterate at which the defect was measured, with no trailing step
    applied.  Iterates are clamped componentwise into [\[lo, hi\]]
    (defaults: unbounded).  [f] must preserve the vector length; the
    input vector is not mutated.  A non-finite defect terminates the
    solve as non-converged.

    [f] is first called at [x0], and each call's result is read before
    the next call, so [f] may return one buffer every time.  [step x _]
    is called, and [value] returned, only at the argument of the latest
    call to [f] (the same bits), so [f] may leave quantities computed at
    its argument for [step] and the caller to reuse.

    Every solve runs inside a ["newton.solve"] flight-recorder span
    (payload: vector length, [max_iter]), bumps the
    ["solver.newton.steps"] / ["solver.newton.fallbacks"] counters, and
    emits a ["solver_convergence"] event (method ["newton"]) on
    [telemetry] (default: the global registry).  When a sink is
    attached, a ["residual_trajectory"] event carries the defect at each
    iteration (capped at 512 entries); with no sink, the trajectory is
    never materialised. *)

val dense_step :
  jacobian:(float array -> float array array) ->
  float array -> float array -> float array option
(** [dense_step ~jacobian] is a generic [step] for {!solve}: it forms the
    dense system [(I − J(x))·delta = defect] and solves it by Gaussian
    elimination.  O(n³) — intended for small systems and for testing
    structured steps against; [None] on a singular or non-finite system. *)

val gauss_solve : float array array -> float array -> float array option
(** [gauss_solve a b] solves [a·x = b] in place (clobbering both
    arguments) by Gaussian elimination with partial pivoting.  [None] if
    a pivot vanishes to working precision or the result is non-finite. *)
