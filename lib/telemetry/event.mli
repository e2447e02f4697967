(** One telemetry event: a named record with a timestamp and free-form
    JSON fields.  Events are the unit a {!module:Sink} consumes; metrics
    (counters, histograms) aggregate in the {!module:Registry} instead. *)

type t = {
  at : float;     (** emission time, seconds (registry clock) *)
  name : string;  (** e.g. ["run_summary"], ["solver_convergence"] *)
  fields : (string * Jsonx.t) list;
}

val make : at:float -> name:string -> (string * Jsonx.t) list -> t

val to_line : t -> string
(** The JSONL rendering (one line, no trailing newline): an object with
    ["event"] and ["at"] first, then the fields. *)

val of_json : Jsonx.t -> t option
(** Inverse of the object {!to_line} renders; [None] if ["event"]/["at"]
    are missing or ill-typed. *)

val field : string -> t -> Jsonx.t option
