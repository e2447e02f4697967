(** Protocol and game parameters (Table I of the paper).

    All durations are in seconds, all frame sizes in bits.  The default
    values are exactly Table I: 8184-bit payload, 272-bit MAC header,
    128-bit PHY header, 112-bit ACK/CTS and 160-bit RTS (each plus a PHY
    header on the air), 1 Mbit/s channel, σ = 50 µs, SIFS = 28 µs,
    DIFS = 128 µs, gain g = 1, cost e = 0.01, stage length T = 10 s,
    discount δ = 0.9999.

    Table I does not give the maximum backoff stage m; we default to m = 5
    (CWmax = 2⁵·CWmin as in standard DCF) and expose it. *)

type access_mode = Basic | Rts_cts

val pp_access_mode : Format.formatter -> access_mode -> unit

type t = {
  payload_bits : int;
  mac_header_bits : int;
  phy_header_bits : int;
  ack_bits : int;      (** excluding PHY header *)
  rts_bits : int;      (** excluding PHY header *)
  cts_bits : int;      (** excluding PHY header *)
  bit_rate : float;    (** bit/s *)
  sigma : float;       (** empty slot duration, s *)
  sifs : float;
  difs : float;
  gain : float;        (** g, reward for a delivered packet *)
  cost : float;        (** e, energy cost of a transmission attempt *)
  stage_duration : float;  (** T, duration of one game stage, s *)
  discount : float;        (** δ, per-stage discount factor *)
  max_backoff_stage : int; (** m, number of CW doublings *)
  cw_max : int;        (** W_max, upper end of the strategy space *)
  mode : access_mode;
}

val default : t
(** Table I values, basic access, m = 5, W_max = 4096. *)

val rts_cts : t
(** {!default} with RTS/CTS access. *)

val with_mode : access_mode -> t -> t

val validate : t -> (unit, string) result
(** Check positivity/range constraints (rates, durations, g > e ≥ 0,
    0 < δ < 1, m ≥ 0, W_max ≥ 1, and the largest window W_max·2^m an
    int: m ≤ 49 at W_max = 4096).  Used by the CLI before running. *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering of every field with units, for the [table1]
    bench. *)
