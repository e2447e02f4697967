(** Cross-backend equivalence checks: the statistical half of the
    conformance suite.

    The repo has three independent answers to "what does profile W earn?"
    — the Bianchi analytic fixed point ({!Macgame.Oracle}'s [Analytic]
    backend), the virtual-slot simulator ({!Netsim.Slotted}) and the
    spatial event core ({!Netsim.Spatial}).  Each grid {!point} pins one
    (parameter set, CW profile, PER, topology, simulator) combination,
    runs R independent replicates, folds each compared quantity into a
    Welford mean ± Student-t confidence band ({!Band}) and asks whether
    the analytic value sits inside the band widened by the point's
    declared systematic {!slack} — reporting the z-score and consumed
    margin, not just pass/fail.

    Replicate simulations are pure functions of the point (replicate
    seeds are derived arithmetically from [point.seed]), so each point is
    one {!Runner.Task}: the grid runs domain-parallel, results are
    content-cached, and an interrupted nightly sweep resumes from the
    cache entries its finished points wrote. *)

type topology =
  | Clique  (** every node hears every node: comparable to the analytic
                model and to the slotted simulator *)
  | Chain   (** a line with hidden terminals: no analytic reference, used
                for the event-core-vs-reference differential quantity *)

type sim =
  | Slotted of { bianchi_ticks : bool; per : float }
      (** single-hop virtual-slot run; [bianchi_ticks = true] matches the
          chain's tick convention (tight bands), [false] exercises real
          freeze semantics (documents the model's accuracy gap via a wide
          slack).  [per] is the channel-noise packet error rate. *)
  | Spatial of topology  (** the spatial event core on a fixed topology *)

type slack =
  | Rel of float  (** fraction of the reference value *)
  | Abs of float  (** absolute units of the quantity *)
(** The systematic allowance added to the statistical half-width — the
    model-accuracy bias a sampling band cannot absorb (see {!Band}).
    Declared per quantity in the grid table, never hard-coded in check
    logic. *)

type point = {
  id : string;                      (** e.g. ["slotted.basic.n5.w79"] *)
  tier : Check.tier;
  params : Dcf.Params.t;
  profile : int array;              (** per-node contention windows *)
  sim : sim;
  replicates : int;                 (** R ≥ 2 *)
  duration : float;                 (** simulated seconds per replicate *)
  seed : int;                       (** base seed; replicate r uses
                                        [seed + 7919·r] *)
  confidence : float;               (** band coverage, e.g. 0.99 *)
  quantities : (string * slack) list;
      (** which quantities this point checks, each with its slack.
          Quantity ids: ["utility"], ["tau"], ["p"], ["throughput"]
          (uniform profiles), ["utility@W"] (mean over the window-W class
          of a heterogeneous profile), ["error_share"] (fraction of
          completed transmissions lost to channel noise, reference =
          [per]), ["event_core_delta"] (max |payoff difference| between
          {!Netsim.Spatial.run} and {!Netsim.Spatial.run_reference},
          reference = 0). *)
}

val grid : unit -> point list
(** The full conformance grid, fast points first.  Fast-tier points are
    sized for [@ci] (a few seconds total); full-tier points use the
    replicate counts the statistical claims deserve. *)

val points : tier:Check.tier -> point list
(** The grid filtered to the checks a run [~at] that tier executes
    (fast ⊂ full). *)

val reference : point -> string -> float
(** The analytic value a quantity is compared against (PER points
    evaluate utilities with the degradation factor [p_hn = 1 − per], cf.
    {!Netsim.Slotted.run}). *)

val task : point -> (string * float array) list Runner.Task.t
(** One runner task per point: computes the R replicate samples of every
    quantity.  Keyed by the complete point description, so cache entries
    survive exactly as long as the point's definition. *)

val checks :
  ?telemetry:Telemetry.Registry.t ->
  point -> samples:(string * float array) list -> Check.t list
(** Band-compare each quantity's samples against {!reference}; one
    {!Check.t} per quantity (id [point.id ^ "." ^ quantity]), emitted on
    the registry. *)
