(** One experiment point: a pure computation plus the identity that makes
    it cacheable and deterministically seedable.

    The contract a task must honour for the runner's guarantees to hold:

    - {b Purity}: [compute] depends only on its captured parameters and
      the RNG it is handed — no ambient mutable state, no wall clock.
    - {b Key completeness}: [key] encodes {e every} parameter that can
      change the result.  Two tasks with equal keys are interchangeable;
      the cache will happily serve one's result for the other.
    - {b Codec fidelity}: [decode (encode v)] must reproduce [v] exactly
      ({!Telemetry.Jsonx} renders floats so they round-trip bit-for-bit),
      so a cache hit is byte-identical to recomputation.

    The RNG handed to [compute] is derived from the sweep seed and the
    task key alone ({!Prelude.Rng.of_key}), never from a shared stream —
    the reason a [-j 8] sweep is bit-identical to a serial one. *)

type 'a t = {
  key : string;
  encode : 'a -> Telemetry.Jsonx.t;
  decode : Telemetry.Jsonx.t -> 'a option;
  compute : Prelude.Rng.t -> 'a;
}

val make :
  key:string ->
  encode:('a -> Telemetry.Jsonx.t) ->
  decode:(Telemetry.Jsonx.t -> 'a option) ->
  (Prelude.Rng.t -> 'a) ->
  'a t

val key_of : family:string -> (string * Telemetry.Jsonx.t) list -> string
(** Canonical content key: [family] followed by the fields as one compact
    JSON object with the fields sorted by name, so keys are insensitive to
    the order call sites list parameters in. *)

val rng : seed:int -> 'a t -> Prelude.Rng.t
(** The task's private RNG stream for sweep seed [seed]. *)

(** {2 Codec helpers} — common encodings for task results. *)

val float_array : float array -> Telemetry.Jsonx.t

val to_float_array : Telemetry.Jsonx.t -> float array option

val int_field : string -> Telemetry.Jsonx.t -> int option

val float_field : string -> Telemetry.Jsonx.t -> float option
