(** Conformance checks of the serving layer (group ["serving"], all fast
    tier).

    The service's contract has four load-bearing claims, each pinned by a
    check:

    - ["serving.bitmatch.uniform"] / ["serving.bitmatch.payoff"] — answers
      served through the JSONL protocol are {e bit-identical} to direct
      {!Macgame.Oracle} evaluation (the wire format renders floats at full
      precision; single requests solve cold);
    - ["serving.restart.store_tier"] — a server restarted onto the same
      store directory answers every repeat query from the store tier,
      bit-identically: persistence is indistinguishable from recomputing;
    - ["serving.batch.anchor"] — the members of one batch envelope, 8
      neighbouring payoff profiles whose solves after the first are
      warm-started by the envelope's batch context, agree with cold
      solves to 1e-9 relative (the documented tolerance-for-iterations
      trade); a run with fewer than 7 warm solves fails;
    - ["serving.errors.replies"] — malformed JSON, unknown ops, invalid
      arguments, nested batches and expired deadlines all produce error
      replies, never exceptions. *)

val checks :
  ?telemetry:Telemetry.Registry.t -> tier:Check.tier -> unit -> Check.t list
