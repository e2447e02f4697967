(** Golden regression snapshots: canonical JSONL files under
    [test/golden/], regenerated on demand and diffed field by field.

    Each {!snapshot} deterministically generates a list of JSON records
    (every generator is a pure function of constants baked into this
    module — fixed seeds, fixed grids — so blessing twice produces
    byte-identical files).  Checking parses the stored file and compares
    record by record under the snapshot's {!policy}:

    - [Exact] — every field must round-trip bit-identically
      ({!Telemetry.Jsonx} renders floats so parse ∘ render is the
      identity).  Used for analytic results and for simulator runs, which
      are bit-reproducible under the determinism contract.
    - [Toleranced tol] — float fields may drift by the relative tolerance
      (margin = consumed fraction, like every other check); non-float
      fields stay exact.  Used for fields measured through a simulated
      oracle backend, where a harmless change in RNG consumption order
      should not churn the goldens.

    A failing check's detail lists the first differing fields as
    ["record/field: golden X vs current Y"] and the report ends with the
    one-line re-bless command.  [CONFORMANCE_BLESS=1] (or
    [--bless]) rewrites the files instead of checking them. *)

type policy = Exact | Toleranced of float

type snapshot = {
  name : string;   (** file stem: [name ^ ".jsonl"] in the golden dir *)
  tier : Check.tier;
  policy : policy;
  generate : unit -> Telemetry.Jsonx.t list;
      (** one JSON object per JSONL line, each carrying an ["id"] field
          that keys the per-record diff *)
}

val snapshots : unit -> snapshot list

val checks :
  ?telemetry:Telemetry.Registry.t ->
  tier:Check.tier -> dir:string -> unit -> Check.t list
(** One check per snapshot in the tier (group ["golden"], id
    ["golden." ^ name]).  A missing golden directory or file yields a
    [Skipped] check naming the bless command rather than a failure, so a
    fresh checkout degrades loudly but green. *)

val bless : dir:string -> tier:Check.tier -> string list
(** Regenerate every snapshot in the tier into [dir] (created if needed);
    returns the paths written.  Deterministic: running it twice writes
    byte-identical files. *)

