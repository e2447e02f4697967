(** The assembled conformance suite: equivalence grid + paper anchors +
    golden snapshots, at a chosen tier.

    The equivalence points run as one {!Runner.map} sweep (name
    ["conformance.<tier>"]), so [-j N] parallelises the statistical grid,
    results are content-cached, and an interrupted full-tier run resumes
    from the cache entries its finished points wrote.  Anchors and golden
    snapshots are cheap and run inline. *)

type outcome = {
  tier : Check.tier;
  checks : Check.t list;  (** every check the tier ran, in groups *)
  report : string;        (** {!Check.report} of [checks] *)
  ok : bool;              (** {!Check.all_passed} *)
}

val default_golden_dir : string
(** ["test/golden"] — resolved relative to the working directory, so runs
    from the repo root find the checked-in snapshots. *)

val run :
  ?telemetry:Telemetry.Registry.t ->
  ?golden_dir:string ->
  tier:Check.tier ->
  unit ->
  outcome
(** Execute every check the tier includes; each check is emitted on the
    registry as it completes (margin histogram, pass/fail counters, one
    event per check). *)

val bless : ?golden_dir:string -> tier:Check.tier -> unit -> string list
(** Regenerate the golden snapshots instead of checking them; returns the
    files written. *)
