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
    damage is reported by {!decode} and {!verify} returning [None]
    instead. *)

val header : string
(** The header line (no trailing newline) every store file starts with. *)

val check_header : string -> unit
(** Validate a file's first line.  @raise Corrupt when it is not a
    well-formed header carrying the expected magic and version. *)

val payload : key:string -> Telemetry.Jsonx.t -> string
(** The JSON document [{"k": key, "v": value}] an entry line carries
    after its digest. *)

val digest : string -> string
(** The 16 hex digits that precede a payload on its line. *)

val encode : key:string -> Telemetry.Jsonx.t -> string
(** One entry line (no trailing newline): [digest p ^ ":" ^ p] for
    [p = payload ~key value]. *)

val decode : string -> (string * Telemetry.Jsonx.t) option
(** Decode one entry line; [None] on any damage.  Values round-trip
    bit-faithfully for floats ({!Telemetry.Jsonx} renders the shortest
    representation that parses back to the identical bits). *)

val verify : string -> (string * string) option
(** [verify line] is [Some (key, payload)] when [decode line] would
    succeed: the digest matches and the payload parses in full.  The
    parsed value is dropped; {!value} recovers it from the payload. *)

val value : string -> Telemetry.Jsonx.t
(** The value of a payload that {!payload} rendered or {!verify}
    accepted.  @raise Corrupt on any other bytes. *)
