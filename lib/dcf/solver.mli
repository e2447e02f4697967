(** Coupled fixed point of the heterogeneous network model.

    Combining eq. 2 (τ_i from p_i and W_i) with eq. 3
    (p_i = 1 − Π_{j≠i}(1 − τ_j)) gives 2n equations in 2n unknowns; we solve
    the equivalent fixed point on the τ vector, reduced to one τ per class
    of nodes that share a strategy.  Every entry point runs one engine: a
    damped-Newton iteration on the defect — the Jacobian of the
    class-space map is diagonal plus rank-one, so each Newton step costs
    O(c) via Sherman–Morrison — that falls back to a damped sweep on any
    refused, singular, or non-contracting step.  [1] proves uniqueness for
    homogeneous windows; for heterogeneous classes the test suite probes
    it from randomised starting points (cold and hinted solves agree to
    1e-11 absolute), and the [solver_core] conformance group certifies
    answers with an independent per-node evaluation of eqs. 2–3 and
    Newton's quadratic rate. *)

type solution = {
  taus : float array;  (** per-node transmission probability *)
  ps : float array;    (** per-node conditional collision probability *)
  iterations : int;
  converged : bool;
}

type class_solution = {
  class_pairs : (float * float) list;
      (** per-class (τ, p) in input order; for strategy classes τ is the
          {e effective} transmission probability (AIFS-discounted) *)
  iterations : int;  (** map evaluations spent by the underlying solver *)
  converged : bool;  (** whether the final defect fell below [tol] *)
}

val solve_homogeneous :
  ?telemetry:Telemetry.Registry.t -> ?iterations:int ref ->
  ?tol:float -> Params.t -> n:int -> w:int -> float * float
(** [(τ, p)] for [n ≥ 1] nodes all using window [w]: the scalar fixed point
    τ = τ(1 − (1−τ)^{n−1}), solved by Brent's method on the defect over
    (0, 1] to [tol] (default 1e-14; the class engine's cold-start proxy
    asks for 1e-6).  Orders of magnitude faster than the vector solve;
    used by the CW sweeps.  [iterations], when given, receives Brent's
    iteration count (0 for the trivial n = 1 case) — the scalar path's
    analogue of [solution.iterations]; the same count is reported in a
    ["solver_convergence"] event. *)

val solve_classes :
  ?telemetry:Telemetry.Registry.t -> ?tau_hint:(int -> float option) ->
  ?max_iter:int -> Params.t -> (int * int) list -> class_solution
(** [solve_classes params [(w1, k1); …]] solves a network of Σk_c nodes in
    which [k_c] nodes share window [w_c], reducing the fixed point to one
    (τ, p) pair per class:

    p_c = 1 − Π_{c'} (1−τ_{c'})^{k_{c'}} / (1−τ_c).

    Returns the per-class [(τ_c, p_c)] in input order together with the
    iteration count and the {e real} convergence flag.  This is what the
    coalition analyses use — a 3-class problem costs the same as n = 3.
    Windows must be ≥ 1 and counts ≥ 1; classes may repeat a window.
    The solve runs to a max-norm defect of 1e-14, within [max_iter]
    iterations (default 50 000).  [tau_hint w] may seed class [w]'s
    starting iterate with a τ from a neighbouring solved problem (warm
    start); hints outside (0, 1) are ignored.  The iteration converges to
    the same fixed point from any interior start, so a hint trades
    bit-stability for iterations: the answer agrees with the cold solve
    at tolerance level.  Telemetry flows through
    {!Numerics.Newton.solve} on [telemetry] (default: the global
    registry). *)

val solve_strategy_classes :
  ?telemetry:Telemetry.Registry.t ->
  ?tau_hint:(Strategy_space.t -> float option) -> ?max_iter:int ->
  Params.t -> (Strategy_space.t * int) list -> class_solution
(** Multi-knob analogue of {!solve_classes}: [k_c] nodes share strategy
    [s_c].  AIFS couples into the fixed point through an eligibility
    factor — a node deferring [a] extra slots after every busy period only
    reaches a transmission slot with probability (1 − p)^a in the
    mean-field model, so its effective per-slot transmission probability
    is τ' = (1 − p)^a · τ_bianchi(W, p), and it is τ' that enters every
    other node's collision probability.  The Newton Jacobian carries the
    eligibility factor through the product rule:
    φ' = (1−p)^a·dτB/dp − a·(1−p)^{a−1}·τB.  TXOP and rate leave the
    contention fixed point untouched (they are priced in channel occupancy
    and utility downstream).  Returns per-class [(τ'_c, p_c)] in input
    order.  [tau_hint s] warm-starts class [s] like {!solve_classes}'s
    window-keyed hint; the oracle's batch context seeds multi-knob
    profiles through it.  Both entry points run one class engine, so CW-only
    classes solve bit-identically to {!solve_classes} on their windows
    (same pairs, iterations and [converged]). *)

val solve_profile :
  ?telemetry:Telemetry.Registry.t -> ?tau_hint:(int -> float option) ->
  ?max_iter:int -> Params.t -> int array -> solution
(** [solve_profile params cws] solves the network in which node i uses
    window [cws.(i)], class-reduced: nodes sharing a window share (τ, p)
    by symmetry, so the profile is grouped into distinct-window classes
    (sorted ascending, so any permutation of [cws] solves the identical
    class problem), solved exactly as {!solve_classes} solves them, and
    the per-class pairs are expanded back to per-node arrays in input
    order.  All windows must be ≥ 1; the array must be non-empty.  This
    is the payoff oracle's canonical solve entry: a profile costs what
    its distinct windows cost (the common case in repeated games has
    few), and the answer is permutation-invariant by construction.
    [converged] is threaded from the underlying class solve — it is no
    longer assumed [true]. *)

type profile_classes = {
  windows : int array;  (** the profile's distinct windows, ascending *)
  counts : int array;  (** nodes on each window *)
  node_class : int array;
      (** node i's class: the index of [cws.(i)] in [windows] *)
  class_taus : float array;  (** per-class τ, in [windows] order *)
  class_ps : float array;  (** per-class p, in [windows] order *)
  iterations : int;
  converged : bool;
}

val solve_profile_classes :
  ?telemetry:Telemetry.Registry.t -> ?tau_hint:(int -> float option) ->
  ?max_iter:int -> Params.t -> int array -> profile_classes
(** {!solve_profile} before its per-node expansion: the same validation,
    grouping and class solve, returned per class.  {!solve_profile} is
    this followed by {!per_node} on the τs and the ps. *)

val per_node : profile_classes -> float array -> float array
(** [per_node pc values] is the per-node array in which node i holds
    [values.(pc.node_class.(i))], for any per-class [values]. *)
