(** High-level facade over the analytic model: one call from a CW profile to
    everything the game layer consumes.

    The game layer ({!module:Macgame}) manipulates CW profiles only through
    this module, so the whole Bianchi machinery stays an implementation
    detail of the [dcf] library. *)

type solved = {
  params : Params.t;
  cws : int array;
  taus : float array;
  ps : float array;
  metrics : Metrics.t;
  utilities : float array;  (** payoff rates u_i *)
  iterations : int;  (** iterations of the underlying class solve *)
  converged : bool;
      (** whether the underlying fixed point actually converged — callers
          that persist or serve answers must check this *)
}

val solve_profile :
  ?p_hn:float -> ?tau_hint:(int -> float option) ->
  ?max_iter:int -> Params.t -> int array -> solved
(** Solve the fixed point for a heterogeneous profile and evaluate
    metrics and utilities.  [p_hn] (default 1) is the multi-hop
    hidden-node degradation factor applied to every node.  The fixed
    point is {!Solver.solve_profile}'s: class-reduced over distinct
    windows, so equal windows get bit-identical (τ, p, u) and the result
    is invariant under profile permutation.  The payoff oracle's
    heterogeneous path.  [tau_hint] (warm start) and [max_iter] pass
    through to {!Solver.solve_profile}. *)

type priced_classes = {
  classes : Solver.profile_classes;
      (** the class solve: windows, counts, node classes, per-class τ
          and p, convergence *)
  class_utilities : float array;  (** per-class payoff rate u *)
  metrics : Metrics.t;
      (** {!Metrics.of_taus} over the per-node τs in the profile's order,
          so its slot time carries {!solve_profile}'s bits *)
}

val solve_profile_classes :
  ?p_hn:float -> ?tau_hint:(int -> float option) ->
  ?max_iter:int -> Params.t -> int array -> priced_classes
(** {!solve_profile} in class form: one τ, p and utility per distinct
    window, each with the bits every member of the class gets from
    {!solve_profile}, which is this followed by a per-node expansion.
    The payoff oracle builds its class rows from it. *)

type strategy_solved = {
  params : Params.t;
  strategies : Strategy_space.t array;
  taus : float array;
      (** effective per-slot transmission probabilities τ'_i *)
  ps : float array;
  slot_time : float;
  utilities : float array;  (** TXOP-aware payoff rates u_i *)
  goodputs : float array;
      (** per-node normalised goodput (burst payload credited to the
          access) *)
  iterations : int;  (** iterations of the underlying class solve *)
  converged : bool;  (** threaded from the underlying class solve *)
}

val solve_strategies :
  ?p_hn:float -> ?tau_hint:(Strategy_space.t -> float option) ->
  ?max_iter:int -> Params.t -> Strategy_space.t array -> strategy_solved
(** Solve a full multi-knob strategy profile.  When every strategy is
    degenerate (CW-only) this delegates to {!solve_profile} verbatim, so
    the degenerate subspace reproduces the CW-only answers bit-identically
    (taus/ps/utilities equal [solved]'s, [slot_time] =
    [metrics.slot_time], [goodputs] = [metrics.per_node_throughput]).
    Otherwise: contention via {!Solver.solve_strategy_classes} (AIFS
    eligibility coupling), channel occupancy via {!Hetero.of_profile} with
    per-strategy burst/rate durations, and payoffs via
    {!Utility.rate_of_strategy}.  [tau_hint] warm-starts the class solve
    (strategy-keyed; on the degenerate branch it is adapted to the
    window-keyed {!solve_profile} hint), and [max_iter] bounds the
    underlying iteration — both pass straight through to the solver. *)

type node_view = {
  tau : float;
  p : float;
  utility : float;     (** payoff rate u *)
  throughput : float;  (** node's share of S *)
  slot_time : float;   (** network T̄slot *)
}

val homogeneous : ?p_hn:float -> Params.t -> n:int -> w:int -> node_view
(** Per-node view of the symmetric network (all [n] nodes on window [w]),
    via the fast scalar solve. *)

val homogeneous_welfare : ?p_hn:float -> Params.t -> n:int -> w:int -> float
(** n·u for the symmetric network: the global payoff rate plotted in
    Figures 2–3 (up to the constant C). *)
