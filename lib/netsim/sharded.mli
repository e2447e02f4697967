(** Region-sharded spatial simulation across OCaml 5 domains.

    The area is cut into [shards] vertical strips of equal width over the
    x-extent of the positions.  Each shard simulates its strip's nodes
    with {!Spatial.run_grid} on its own domain (scheduled by
    {!Runner.Pool}), together with {e ghosts}: nodes of neighbouring
    strips within [halo] of the strip edge, mirrored into the shard's
    index so border carrier-sense, NAV and interference are seen from
    both sides.  The default halo, [max cs_range (2·range)], covers every
    first-order coupling the physics has (carrier-sense deferral and the
    two-decode-hop interference neighbourhood); second-order effects that
    chain through nodes beyond the halo are where the approximation —
    and the statistical-equivalence conformance point — lives.

    Ownership resolves ties: a node's statistics come only from the shard
    owning its strip; its ghost copies elsewhere exist to keep the border
    physics honest and are discarded.

    Determinism contract: every node's RNG stream is {!node_rng}, keyed
    by its {e global} id via {!Prelude.Rng.of_key} — independent of the
    shard count, the pool's worker count and scheduling order — and
    shards do not communicate during the run.  Hence the merged result is
    a pure function of [(config, shards, halo)]: re-running with a
    different worker pool is bit-identical, and [~shards:1] is
    bit-identical to the single-domain {!Spatial.run_grid} with the same
    [rng_of] (pinned by the [scale] conformance group). *)

type config = {
  params : Dcf.Params.t;
  positions : Mobility.Geom.point array;
  range : float;       (** decode (transmission) radius *)
  cs_range : float;    (** carrier-sense radius, >= [range] *)
  cws : int array;
  duration : float;
  seed : int;
}

type shard_info = {
  shard : int;          (** strip index *)
  owned : int;          (** nodes whose statistics this shard produced *)
  mirrored : int;       (** ghosts simulated redundantly for the border *)
  wall_seconds : float; (** wall-clock of this shard's sub-run *)
}

type result = {
  time : float;
  per_node : Spatial.node_stats array;  (** indexed by global node id *)
  welfare_rate : float;
  delivered : int;
      (** frames delivered by owned nodes, including post-horizon
          resolutions (the sum of [per_node] successes — unlike
          {!Spatial.result.delivered} there is no cross-shard notion of
          the in-horizon global count) *)
  shards : shard_info array;  (** live shards only (empty strips are
                                  skipped) *)
}

val node_rng : seed:int -> int -> Prelude.Rng.t
(** The stream node [gid] draws from in every shard that simulates it. *)

val run :
  ?telemetry:Telemetry.Registry.t ->
  ?retry_limit:int ->
  ?strategies:Dcf.Strategy_space.t array ->
  ?pool:Runner.Pool.t -> ?halo:float ->
  shards:int -> config -> result
(** Simulate [config] over [shards] strips.  [pool] defaults to a fresh
    {!Runner.Pool} with one worker per live shard.  [halo] defaults to
    [max cs_range (2·range)]; smaller halos trade border accuracy for
    less redundant work (each ghost is simulated in full).

    Each shard's sub-run goes to its own telemetry registry; after the
    join the grid counters fold back into [telemetry], per-shard
    [netsim.shard<k>.utilization] gauges record each shard's wall share
    of the slowest shard, and a ["sharded_run_summary"] event is emitted.
    Each sub-run is wrapped in a [netsim.shard] flight-recorder span
    (a = strip index, b = members simulated).

    @raise Invalid_argument on inconsistent sizes, [shards < 1], a
    [range] that is not positive and finite, a [cs_range] that is not
    finite and [>= range], a [halo] that is not finite and [>= 0], or a
    non-finite coordinate (NaN fails every one of these checks). *)
