(** Line codec of the persistent equilibrium store.

    A store file is line-oriented: one header line naming the magic and
    format version, then one entry per line.  Every entry line is

    {v <16 hex digits>:<compact JSON {"k": key, "v": value}> v}

    where the digest is the 64-bit FNV-1a hash of the payload bytes that
    follow the colon.  A torn final line (kill mid-append), a flipped bit
    anywhere in the line, or a glued/partial JSON document all fail the
    digest or the parse and decode to [None] — the reader drops exactly
    that entry and keeps every other line, so a crash never costs more
    than the entry being written. *)

exception Corrupt of string
(** Raised for file-level damage (header of a non-store file); per-entry
    damage is reported by {!decode} returning [None] instead. *)

val header : string
(** The header line (no trailing newline) every store file starts with. *)

val check_header : string -> unit
(** Validate a file's first line.  @raise Corrupt when it is not a
    well-formed header carrying the expected magic and version. *)

val encode : key:string -> Telemetry.Jsonx.t -> string
(** One entry line (no trailing newline). *)

val decode : string -> (string * Telemetry.Jsonx.t) option
(** Decode one entry line; [None] on any damage.  Values round-trip
    bit-faithfully for floats ({!Telemetry.Jsonx} renders the shortest
    representation that parses back to the identical bits). *)
