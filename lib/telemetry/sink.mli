(** Pluggable event consumers.

    A sink is just two closures, so backends stay decoupled from the
    registry: the in-memory sink backs tests and the JSONL sink backs the
    CLI [--telemetry FILE] flag and the benches. *)

type t = {
  emit : Event.t -> unit;
  close : unit -> unit;
}

val memory : unit -> t * (unit -> Event.t list)
(** A sink buffering every event, and an accessor returning them in
    emission order. *)

val jsonl : string -> t
(** Opens [path] for writing and streams one JSON line per event.  [close]
    closes the file; later emits are ignored. *)

val emit : t -> Event.t -> unit

val close : t -> unit
