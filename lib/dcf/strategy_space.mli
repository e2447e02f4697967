(** Multi-dimensional MAC strategy: the (CW, AIFS, TXOP, rate) knobs.

    The paper's game is CW-only, but real 802.11e selfishness plays every
    EDCA knob (Banchs et al., arXiv 1311.6280; Tinnirello et al., arXiv
    1008.4463): shrink the contention window, shorten the arbitration
    inter-frame space, stretch the transmission opportunity, or force a
    higher PHY rate.  This module is the single source of truth for that
    strategy record — its canonical order, its persistent key, and its
    JSON codec — so that every layer (solver, oracle, simulators,
    store, serve) keys on the same value.

    The CW-only subspace [{aifs = 0; txop_frames = 1; rate = 1.0}] is the
    {e degenerate subspace}: every consumer is required to reproduce the
    pre-refactor CW-only answers bit-identically on it.  [is_degenerate]
    is the branch point consumers use to delegate to the legacy code
    paths. *)

type t = {
  cw : int;          (** minimum contention window W (slots), ≥ 1 *)
  aifs : int;        (** extra defer slots beyond DIFS after a busy period, ≥ 0 *)
  txop_frames : int; (** frames sent back-to-back per channel access, ≥ 1 *)
  rate : float;      (** payload PHY-rate multiplier on the base bit rate, > 0 *)
}

val of_cw : int -> t
(** [of_cw w] is the degenerate (CW-only) strategy with window [w]. *)

val is_degenerate : t -> bool
(** No knob other than CW moved: [aifs = 0 && txop_frames = 1 && rate = 1.0]. *)

val compare : t -> t -> int
(** Canonical total order: lexicographic on (cw, aifs, txop_frames, rate).
    Profiles sorted with it are permutation-invariant multisets. *)

val equal : t -> t -> bool

val validate : ?cw_max:int -> t -> (unit, string) result
(** Range checks: [1 ≤ cw ≤ cw_max] (when given), [0 ≤ aifs],
    [1 ≤ txop_frames], [rate > 0]. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering: a bare window ["32"] for degenerate strategies,
    ["(cw=16,aifs=2,txop=4,rate=2)"] otherwise. *)

val to_key : t -> string
(** Deterministic key fragment for store/memo addressing: ["w32"] for
    degenerate strategies (so CW-only keys keep their historical shape),
    ["w16.a2.t4.r<hex-float>"] otherwise.  The rate uses [%h] so the key
    is bit-faithful. *)

val to_json : t -> Telemetry.Jsonx.t
(** Degenerate strategies render as a bare [Int cw] (the historical wire
    shorthand); anything else as
    [{"cw":_, "aifs":_, "txop":_, "rate":_}]. *)

val of_json : Telemetry.Jsonx.t -> (t, string) result
(** Accepts the bare-int CW shorthand and the object form (field order
    irrelevant; [aifs]/[txop]/[rate] optional, defaulting to the
    degenerate values). *)

(** {1 Per-strategy channel occupancy} *)

type times = {
  ts : float;      (** success occupancy of a full TXOP burst, s *)
  ts1 : float;     (** success occupancy of a single frame (PER-corrupted
                       accesses abort the burst after frame one), s *)
  tc : float;      (** collision occupancy, s *)
  payload : float; (** per-frame payload airtime at the node's rate, s *)
}

val times : Params.t -> base:Timing.t -> t -> times
(** Occupancy durations for one node playing [t].  For degenerate timing
    (txop = 1 and rate = 1.0 — AIFS does not change frame durations) the
    [base] durations are passed through untouched, which makes the
    degenerate-subspace bit-identity structural rather than numerical. *)

(** {1 Discrete strategy spaces for NE search} *)

type space = {
  cw_min : int;
  cw_max : int;
  aifs_max : int;        (** AIFS dimension is [0 .. aifs_max] *)
  txop_max : int;        (** TXOP dimension is [1 .. txop_max] *)
  rates : float array;   (** admissible rate multipliers, must include 1.0 *)
}

val edca_space : ?aifs_max:int -> ?txop_max:int -> ?rates:float array ->
  cw_max:int -> unit -> space
(** Multi-knob space; defaults: [aifs_max = 4], [txop_max = 4],
    [rates = [|1.0|]]. *)

val space_validate : space -> (unit, string) result

val mem : space -> t -> bool
(** Membership in the discrete grid ([rate] by float equality against
    [rates]). *)
