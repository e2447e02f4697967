(** The unified payoff oracle: one memoized, backend-pluggable evaluation
    path for every payoff the game layer needs.

    Every analysis in this library ultimately asks the same two questions —
    "what does each node earn under this CW profile?" and "what are τ and p
    at this uniform window?" — and before this module each game module
    answered them with its own private helper calling
    {!Dcf.Model.homogeneous} or {!Dcf.Solver.solve_homogeneous} directly,
    hard-wiring the analytic backend.  An {!t} bundles the parameter set,
    the evaluation backend (closed-form/fixed-point analytic model, or
    packet-level measurement on either simulator) and a profile-keyed memo
    table, so the backend is chosen once per experiment and redundant
    fixed-point solves (repeated games and NE searches revisit the same
    profiles across stages and probes) become cache hits.

    {2 Memoization}

    Two tables, both protected by a mutex (oracles are shared across the
    experiment runner's domains):

    - a [(n, w)] fast path for uniform profiles, backed by the scalar
      Brent solve (analytic) or an n-node simulation;
    - a canonical-profile table for heterogeneous profiles, keyed by the
      {e sorted} multiset of per-node windows.  Sorting is sound because
      payoffs are permutation-invariant in the profile — nodes are
      distinguished only by their window (the qcheck suite probes this
      property on the raw solver) — and the canonical entry answers every
      permutation of the same multiset.  The analytic backend evaluates
      profiles through {!Dcf.Model.solve_profile} (class-reduced, so equal
      windows get bit-identical payoffs); the simulated backends average
      replicate runs and then average {e within} each window class, making
      permutation invariance exact by construction there too.

    Memo hits return the stored floats unchanged, so a hit is bit-identical
    to the cold solve that populated it.

    {2 Persistence}

    An oracle may be backed by a {!Store.t}: on a memo miss the store is
    consulted before solving, and cold solves are written through, so
    equilibrium grids survive across processes and runs.  Store keys embed
    the full evaluation identity (parameter fingerprint, backend with its
    sim configuration, p_hn), and values round-trip bit-faithfully, so a
    store hit is bit-identical to the solve that produced it — across
    process boundaries.

    Keys use schema {b v2} ([oracle|v2|…]): profile rows address the full
    (CW, AIFS, TXOP, rate) strategy multiset, with degenerate (CW-only)
    strategies keeping the historical bare-window rendering.  A store
    containing any legacy [oracle|v1|…] row is refused at {!create} with
    {!Store.Corrupt}: v1 rows keyed bare windows and cannot distinguish a
    CW from the strategies projecting onto it, so reinterpreting them
    would silently alias distinct strategies.

    The one warm start is a {!batch} context, which the serving layer
    opens per batch envelope: its cold solves start from the class τs of
    the profiles solved before them in the same context.  Every other
    evaluation solves cold.

    {2 Telemetry}

    Counters on the oracle's registry (these replace the repeated-game
    engine's bespoke [repeated.payoff_cache.hits]/[misses]):

    - ["oracle.cache.hits"] / ["oracle.cache.misses"] — memo table
      outcomes, one per query;
    - ["oracle.cache.solves"] — backend invocations: one per analytic
      solve, one per simulation replicate (so with [replicates > 1],
      solves exceeds misses);
    - ["oracle.store.hits"] / ["oracle.store.misses"] — persistent-store
      outcomes, counted only on memo misses of a store-backed oracle;
    - ["oracle.solve.iterations.warm"] / [".cold"] — iteration-count
      histograms of batch-warm vs cold analytic solves (the warm-start
      saving, measured). *)

type sim_config = {
  duration : float;   (** simulated seconds per replicate, finite and > 0 *)
  replicates : int;   (** independent runs averaged per evaluation, ≥ 1 *)
  seed : int;         (** master seed; per-replicate streams are derived *)
}
(** Configuration of a simulated backend.  Each evaluation derives one RNG
    stream per replicate with {!Prelude.Rng.of_key} from [(seed, content
    key # replicate)], where the content key encodes the profile being
    measured — so results are independent of evaluation order and memo
    state, and two oracles with equal configs agree exactly. *)

type backend =
  | Analytic
      (** The Bianchi fixed-point model: scalar Brent solve for uniform
          profiles, class-reduced damped Newton for heterogeneous ones.
          Exact and fast; the default. *)
  | Sim_slotted of sim_config
      (** Packet-level measurement on {!Netsim.Slotted} (virtual-slot
          accurate, single-hop). *)
  | Sim_spatial of sim_config
      (** Packet-level measurement on {!Netsim.Spatial} over a clique
          topology (σ-quantised; τ/p estimates are coarse, payoffs exact
          counters).  Prefer n ≥ 2: a single isolated node never
          transmits. *)

type uniform_view = {
  tau : float;        (** per-node transmission probability (estimate) *)
  p : float;          (** conditional collision probability (estimate) *)
  utility : float;    (** per-node payoff rate u *)
  throughput : float; (** network throughput S *)
  slot_time : float;  (** mean virtual slot length T̄slot, s *)
}
(** Everything the game layer consumes about a uniform profile (w, …, w). *)

type tier =
  | Memo   (** answered from the in-process memo, bit-identical *)
  | Store  (** answered from the persistent store, bit-identical *)
  | Cold   (** solved by the backend (and written through) *)
(** Where an answer came from — the serving layer's per-request
    accounting.  [Memo] and [Store] answers are bit-identical to the cold
    solve that originally produced them. *)

val tier_name : tier -> string
(** ["memo"], ["store"] or ["cold"] — the wire vocabulary of the serving
    layer's replies and counters. *)

exception Non_converged of string
(** Raised (instead of returning a fabricated answer) when the analytic
    fixed point fails to converge within its iteration budget.  Raising
    happens {e before} any memo insert or store write, so non-converged
    solves can never be memoized, persisted, or served; each refusal bumps
    the ["oracle.solve.nonconverged"] counter.  The serving layer maps
    this to an error reply. *)

type t

val create :
  ?telemetry:Telemetry.Registry.t ->
  ?p_hn:float -> ?backend:backend ->
  ?store:Store.t -> ?solver_max_iter:int -> Dcf.Params.t -> t
(** [create params] builds an oracle with an empty memo.  [backend]
    defaults to [Analytic].  [p_hn] is the hidden-node degradation factor
    applied to analytic utilities (default 1); the simulated backends
    ignore it — their losses come from the packet process itself.
    [telemetry] (default: the global registry) receives the cache counters
    and any solver/simulator events.

    [store], when given, backs the memo with persistent rows: memo misses
    consult the store and cold solves write through.  Opening scans the
    store's keys, not its values.
    @raise Store.Corrupt if the store holds any legacy [oracle|v1|…] row
    (regenerate or delete it — the v2 strategy-keyed schema cannot address
    v1 rows).

    [solver_max_iter] (≥ 1) bounds the analytic class solver's iteration
    budget (the Brent uniform path is unaffected).  Solves that exhaust
    it raise {!Non_converged} instead of answering — the oracle never
    memoizes, persists, or serves a non-converged fixed point.

    @raise Invalid_argument on a sim backend whose duration is not finite
    and positive or whose replicates are < 1. *)

val analytic : ?telemetry:Telemetry.Registry.t -> ?p_hn:float -> Dcf.Params.t -> t
(** [analytic params] = [create ~backend:Analytic params]. *)

val params : t -> Dcf.Params.t

val backend : t -> backend

val telemetry : t -> Telemetry.Registry.t

val store : t -> Store.t option

val identity : t -> string
(** The oracle's full evaluation identity (parameter fingerprint, p_hn,
    backend with sim configuration) — the prefix of every store key it
    reads or writes.  Layers that persist derived results (the serving
    layer's NE rows) key them under the same prefix so rows never leak
    across configurations. *)

val backend_name : backend -> string
(** ["analytic"], ["slotted"] or ["spatial"] — the CLI's [--backend]
    vocabulary. *)

val uniform : t -> n:int -> w:int -> uniform_view
(** The memoized uniform-profile evaluation ((n, w) fast path).  Uniform
    multi-knob profiles take the same memo through {!payoffs_profile}. *)

val uniform_outcome : t -> n:int -> w:int -> uniform_view * tier
(** Like {!uniform}, also reporting which tier answered — the serving
    layer's entry point. *)

val payoff_uniform : t -> n:int -> w:int -> float
(** Per-node payoff rate u of the uniform profile (w, …, w) — what the
    game modules' deleted private [payoff] helpers computed. *)

val welfare_uniform : t -> n:int -> w:int -> float
(** n·u(w, …, w): the global payoff rate. *)

val tau_p : t -> n:int -> w:int -> float * float
(** The (τ, p) pair of the uniform profile — what the deleted private
    [tau_of] helpers computed. *)

val payoffs_profile : t -> Profile.t -> float array
(** Per-node payoff rates of an arbitrary strategy profile, in profile
    order.  Uniform profiles take the [(n, strategy)] fast path;
    heterogeneous ones go through the canonical sorted-multiset memo.
    Nodes with equal strategies receive bit-identical payoffs, and
    degenerate profiles are bit-identical to the CW-only {!payoffs}
    shorthand. *)

(** {2 Batch evaluation}

    The serve daemon's batch envelopes evaluate many neighbouring profiles
    in sequence; a batch context lets each cold solve start from the
    class τs solved before it, which typically cuts a cold Newton solve
    to a handful of accepted steps.  It is the oracle's only warm start.
    Contexts are single-threaded by design — create one per envelope or
    sweep column, not one per oracle.  Batch-warm answers agree with cold
    solves at tolerance level, not bit level (the [serving.batch.anchor]
    conformance check bounds the gap at 1e-9 relative); the
    memoized/persisted entry is whichever solve ran first.  Catch
    {!Non_converged} per evaluation to keep one diverging point from
    ending a column. *)

type batch
(** Mutable warm-start context accumulating (strategy, τ) pairs across
    the profiles solved through it. *)

val batch : t -> batch
(** A fresh, empty context for this oracle.  Passing it to another
    oracle's evaluations is refused with [Invalid_argument]. *)

val payoffs_profile_outcome :
  ?batch:batch -> t -> Profile.t -> float array * tier
(** Like {!payoffs_profile}, also reporting which tier answered.  [batch]
    threads a sweep context (see {!batch}) whose accumulated class τs
    warm-start this evaluation's cold solve — memo and store tiers are
    unaffected. *)

val payoffs : t -> int array -> float array
(** CW-only shorthand: [payoffs t cws] =
    [payoffs_profile t (Profile.of_cws cws)].  The entry point for every
    caller that speaks bare windows (TFT dynamics, best response,
    deviation scans). *)

val payoffs_outcome : t -> int array -> float array * tier
(** Like {!payoffs}, also reporting which tier answered. *)
