(** Event traces from the simulators.

    A bounded in-memory log of channel events, for debugging protocol
    behaviour and for assertions in tests ("node 3 never transmitted while
    node 1 held the channel").  When the buffer fills, the oldest events
    are discarded and counted in [dropped]. *)

type event =
  | Success of { time : float; node : int }
      (** a frame was delivered at [time] (end of the busy period) *)
  | Collision of { time : float; nodes : int list }
      (** the listed nodes' frames collided *)
  | Channel_error of { time : float; node : int }
      (** [node]'s frame won contention but was corrupted by channel noise
          (packet error rate) — a full-frame loss, distinct from a
          collision *)
  | Drop of { time : float; node : int }
      (** a packet was discarded after the retry limit *)
  | Rts of { time : float; src : int; dest : int }
      (** [src] started an RTS handshake towards [dest] (spatial
          simulator, RTS/CTS mode only) *)
  | Cts of { time : float; src : int; dest : int }
      (** the receiver [src] answered [dest]'s RTS — the exchange won the
          channel; data and ACK follow under NAV protection *)
  | Nav_defer of { time : float; node : int; until : float }
      (** [node] set (or extended) its NAV to [until] seconds because a
          CTS silenced its neighbourhood — virtual carrier sense *)

val time_of : event -> float

type t

val create : ?capacity:int -> unit -> t
(** A trace keeping the most recent [capacity] events (default 100_000). *)

val record : t -> event -> unit

val events : t -> event list
(** Chronological order. *)

val length : t -> int

val dropped : t -> int
(** Events discarded because the buffer was full. *)

type summary = {
  successes : int;
  collisions : int;
  channel_errors : int;  (** noise losses (packet error rate) *)
  drops : int;
  rts : int;         (** RTS handshakes started *)
  cts : int;         (** CTS answers (RTS exchanges that won the channel) *)
  nav_defers : int;  (** NAV settings/extensions observed *)
  per_node_successes : (int * int) list;  (** (node, count), sorted by node *)
}

val summarize : t -> summary

val to_lines : t -> string list
(** Every retained event on one line each, e.g.
    ["0.01230 success node=2"]. *)
