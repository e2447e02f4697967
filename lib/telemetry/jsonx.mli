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

(** {1 Writing piecewise}

    The writer behind {!to_string}, for a caller that knows part of its
    output in advance (the serving layer's reply envelopes): literal bytes
    go in as they are, values through the same renderers, so a document
    written piecewise is byte-identical to [to_string] of its tree.  A
    writer belongs to one caller at a time; nothing is shared between
    writers. *)

type writer

val writer : unit -> writer
(** An empty writer. *)

val write : writer -> t -> unit
(** Append [to_string v]'s bytes. *)

val write_float : writer -> float -> unit
(** Append the bytes [to_string (Float f)] gives. *)

val write_string : writer -> string -> unit
(** Append the bytes [to_string (String s)] gives: quoted and escaped. *)

val write_raw : writer -> string -> unit
(** Append bytes as they are: JSON the caller has already rendered, such
    as pre-escaped keys and punctuation. *)

val contents : writer -> string
(** Everything written so far. *)

exception Parse_error of string

val parse : string -> t
(** Parse one complete RFC 8259 JSON document: numbers without a leading
    [+], a leading zero, or a bare ['.'], and finite; strings without raw
    control bytes, with exactly four hex digits per [\u] escape and
    surrogates only in pairs (decoded to UTF-8).  Everything {!to_string}
    emits parses back.  @raise Parse_error on malformed input or trailing
    garbage. *)

(** {1 Reading in place}

    A reader walks one document the way {!parse} does and raises the same
    [Parse_error], text and offset, at the same byte; what it adds is
    taking a value apart without building its tree.  An object's fields
    are matched in place against a fixed key set, an integer is read as
    an [int], a string is matched against a fixed set of names, and any
    other value is read as a [t].  A caller that reads a document whole
    with these functions and ends with {!finish} accepts exactly the
    documents [parse] accepts.  Each function reads one whole value
    unless it says it reads nothing; "nothing" still skips whitespace.
    A reader belongs to one caller at a time. *)

type reader

val reader : string -> reader
(** A reader at the start of the document. *)

val fields : reader -> string array -> (int -> unit) -> unit
(** [fields r keys f] reads one value.  When it is an object, the first
    field whose key (escaped or not) is [keys.(i)] calls [f i] with [r]
    at the field's value, which [f] must read whole; other fields —
    later repeats of a key, keys outside [keys] — are checked and
    dropped, and so is a value that is not an object.
    @raise Invalid_argument when [keys] holds more than 62 keys. *)

val items : reader -> (unit -> unit) -> bool
(** [items r f]: when the next value is a list, calls [f] once per item
    with [r] at the item, which [f] must read whole, and returns [true];
    otherwise reads nothing and returns [false]. *)

val is_int : reader -> bool
(** Whether the next value is a number {!parse} reads as an [Int]:
    integral, and in range.  Reads nothing. *)

val int : reader -> int
(** Reads the integer {!is_int} found.  @raise Parse_error when there is
    none. *)

val name : reader -> string array -> int
(** [name r names] reads the next value and returns [i] when it is a
    string equal to [names.(i)] (escaped or not); otherwise reads nothing
    and returns [-1]. *)

val value : reader -> t
(** Reads the next value as the tree {!parse} builds. *)

val finish : reader -> unit
(** The end of the document: only whitespace may follow.
    @raise Parse_error on trailing garbage. *)

val member : string -> t -> t option
(** [member key json] is the field [key] of an [Obj], the first one when
    the key repeats; [None] for other constructors or a missing key. *)

val to_float_opt : t -> float option
(** Numeric coercion: [Int] and [Float] succeed, everything else is
    [None]. *)
