(** A minimal JSON value type with a printer and parser.

    Dependency-light on purpose: the telemetry sinks need to write JSONL
    lines and the tests need to read them back, and pulling a full JSON
    library into every instrumented layer would violate the "prelude-only"
    footprint of the telemetry stack.  Numbers parse back as [Int] when the
    literal is integral and fits, [Float] otherwise; non-finite floats
    render as [null] (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering (no trailing newline).  A [Float f] renders
    as C's ["%.1f"] when [f] is integral and [|f| < 1e15], otherwise as
    ["%.12g"] when that reads back as [f], otherwise as ["%.17g"].  Task
    keys, cache entries and store checksums hash these bytes, so the rule
    never changes. *)

val add_int : Buffer.t -> int -> unit
(** Append [string_of_int i]'s bytes, rendered by the digit routine
    behind [Int] values; shared with the key builders. *)

exception Parse_error of string

val parse : string -> t
(** Parse one complete RFC 8259 JSON document: numbers without a leading
    [+], a leading zero, or a bare ['.'], and finite; strings without raw
    control bytes, with exactly four hex digits per [\u] escape and
    surrogates only in pairs (decoded to UTF-8).  Everything {!to_string}
    emits parses back.  @raise Parse_error on malformed input or trailing
    garbage. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an [Obj], the first one when
    the key repeats; [None] for other constructors or a missing key. *)

val to_float_opt : t -> float option
(** Numeric coercion: [Int] and [Float] succeed, everything else is
    [None]. *)
