(** Binary on-disk format for drained traces.

    A trace file is the byte-exact image of a {!Recorder.dump}: an 8-byte
    magic ["MACTRC01"], three little-endian u64s (name count, record
    count, dropped count), the name table (u64 length + bytes each), then
    the records as eight little-endian u64s apiece in {!Recorder.record}
    field order.  Everything is fixed-width so the reader validates
    length arithmetic exactly; short, oversized or out-of-range files
    raise {!Corrupt} instead of yielding a plausible-looking trace. *)

exception Corrupt of string

val magic : string

val write : string -> Recorder.dump -> unit
(** [write path dump] replaces [path] with the serialised trace. *)

val read : string -> Recorder.dump
(** @raise Corrupt when the file is not a well-formed trace (bad magic,
    truncated, trailing bytes, a field outside the OCaml int range — u64
    fields must lie in [\[0, max_int\]] — or a record naming an
    out-of-range name id).  Every file it accepts re-encodes
    byte-identically through {!write}.  I/O errors propagate as
    [Sys_error]. *)
