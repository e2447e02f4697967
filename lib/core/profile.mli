(** Strategy profiles of the MAC game: one {!Dcf.Strategy_space.t} record
    per player.

    The paper's game (Definition 1) is CW-only; the profile generalizes
    W^k to the full (CW, AIFS, TXOP, rate) strategy space while keeping
    the CW-only view first-class: [of_cws]/[cws] convert to and from bare
    window arrays, and every degenerate profile behaves exactly as the
    pre-refactor [int array] profile did. *)

type t = Dcf.Strategy_space.t array

val uniform : n:int -> w:int -> t
(** All [n ≥ 1] players on the degenerate (CW-only) strategy with window
    [w ≥ 1]. *)

val with_deviant : n:int -> w:int -> w_dev:int -> t
(** Player 0 on [w_dev], the other n−1 players on [w] — Lemma 4's
    configuration, degenerate strategies throughout. *)

val with_deviant_strategy : n:int -> w:int -> dev:Dcf.Strategy_space.t -> t
(** Player 0 on the multi-knob strategy [dev], the rest on the degenerate
    window [w]. *)

val of_cws : int array -> t
(** Lift a bare CW array to degenerate strategy records (the CW-only
    shorthand kept across the stack). *)

val cws : t -> int array
(** The CW view: each strategy's window, dropping the other knobs. *)

val is_uniform : t -> bool
(** Every player on the same strategy (all four knobs equal). *)

val is_degenerate : t -> bool
(** Every strategy CW-only ({!Dcf.Strategy_space.is_degenerate}). *)

val min_window : t -> int
(** Smallest window in the profile (the TFT attractor).
    @raise Invalid_argument on an empty profile. *)

val canonical : t -> t
(** Sorted copy under the strategy-space total order: the canonical
    multiset representative.  Permutations of a profile share it. *)

val validate : cw_max:int -> t -> (unit, string) result
(** Every strategy must pass {!Dcf.Strategy_space.validate} with the given
    window cap. *)

val equal : t -> t -> bool

val hash : t -> int
(** Non-negative hash of every knob of every strategy, in order, without
    allocating; equal profiles hash alike.  Hash {!canonical} forms to
    address multisets (the oracle's memo does). *)

val hash_uniform : n:int -> Dcf.Strategy_space.t -> int
(** Non-negative hash of the key [(n, s)] of [n] players on [s], by the
    per-strategy mix of {!hash}, without allocating: the oracle's uniform
    memo hashes by it.  Equal keys hash alike. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering: degenerate uniform profiles as [n×W], other uniform
    profiles as [n×(cw=…,…)], the rest as a list. *)

val to_json : t -> Telemetry.Jsonx.t
(** List of per-player strategies; degenerate entries render as bare ints
    (the historical wire format). *)

val of_json : Telemetry.Jsonx.t -> (t, string) result
