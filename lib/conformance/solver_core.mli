(** Residual certificate for the class solver.

    Every answer the damped-Newton class engine gives on the group's
    problems — the class-reduced 14-point equivalence grid, multi-knob
    strategy classes that exercise the AIFS eligibility term, and
    heterogeneous CW classes — must pass {!certify}: an independent
    per-node re-evaluation of eqs. 2–3 reproduces its τ and p, and a
    re-solve from a perturbed copy of it converges at Newton's quadratic
    rate.  A solve that raises or does not converge fails with an
    infinite margin.  Fast tier: pure analytic solves, a few milliseconds
    total. *)

val collision_probabilities : float array -> float array
(** [collision_probabilities taus] evaluates eq. 3 for every node,
    p_i = 1 − Π_{j≠i}(1 − τ_j), using prefix/suffix products so nodes
    with τ = 1 (window 1) are handled without dividing by zero. *)

type certificate = {
  defect : float;
      (** worst |φ_i(p̂_i) − τ_i| and |p̂_i − p_i| over the nodes, where
          p̂ is eq. 3 at the answer's τs and φ_i(p) =
          [Bianchi.tau_of_p] (W_i, p)·(1 − p)^{AIFS_i} *)
  resolve_iterations : int;
      (** iterations of a re-solve hinted with every interior τ of the
          answer scaled by 1.001 *)
  margin : float;
      (** max(defect / 1e-12, resolve_iterations / 4); infinite when
          the answer or the re-solve did not converge.  When a class's
          τ·1.001 is not below 1 (only a window of 1 gets there), the
          perturbation cannot be applied and the margin is the defect's
          alone. *)
}

val certify :
  Dcf.Params.t -> (Dcf.Strategy_space.t * int) list ->
  Dcf.Solver.class_solution -> certificate
(** [certify params classes sol] certifies [sol], an answer for
    [classes] ([k] nodes on each strategy, as given to
    {!Dcf.Solver.solve_strategy_classes}; CW classes lifted with
    {!Dcf.Strategy_space.of_cw}).  The answer passes iff [margin ≤ 1]. *)

val checks :
  ?telemetry:Telemetry.Registry.t -> tier:Check.tier -> unit -> Check.t list
(** Run the group (fast tier and up), emitting each check on
    [telemetry]. *)
