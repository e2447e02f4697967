(** Persistent, content-keyed equilibrium store.

    The oracle's memo tables die with the process; this store is their
    durable counterpart — a key → JSON map that survives runs and is
    shared across backends, so every equilibrium the fleet has ever
    solved can answer the next query at disk-read cost instead of a
    fixed-point solve.

    {2 On-disk layout}

    {v
    DIR/
      LOCK              advisory lock (holder's pid)
      seg-000000.jsonl  sealed segments (compaction output)
      active.jsonl      append log for new entries
    v}

    Every file starts with a strict magic/version header line and holds
    checksummed entry lines (see {!Codec}).  [put] appends to the active
    log and flushes, so a crash loses at most the entry being written:
    the next open drops the torn final line alone and cuts the log back
    to its last newline before appending.  An active log that is empty or
    holds only part of its header opens as a fresh one.  [compact] folds
    everything into one fresh segment with a tmp+rename write (crash
    mid-compaction leaves the previous files intact) and restarts the
    log.  Later entries win, so re-putting a key supersedes it.

    {2 Index}

    The in-memory index maps each key to its entry's payload bytes, the
    JSON document after the digest.  Opening verifies every line (digest,
    then a full parse) but keeps only those bytes; {!find} parses a
    payload each time it returns one; {!iter} hands out keys only.

    {2 Locking}

    Opening takes an advisory lock ([LOCK], via [lockf] plus an
    in-process registry) and raises {!Locked} immediately when another
    opener — same process or another one — already holds the store:
    concurrent writers would interleave log appends, so the store
    refuses fast and loudly rather than corrupting.

    {2 Telemetry}

    Counters on the registry passed at open: ["store.hits"] /
    ["store.misses"] (lookups), ["store.puts"], ["store.corrupt_entries"]
    (entry lines dropped at load), ["store.compactions"]. *)

module Codec = Codec
(** The line codec, exposed for tests and tooling that inspect or forge
    store files (e.g. crash-safety tests damaging entries byte-wise). *)

type t

exception Locked of string
(** Raised by {!open_dir} when the directory is already open elsewhere. *)

exception Corrupt of string
(** Raised when a store file is not a store file at all (bad magic or
    unsupported version).  Damaged {e entries} never raise — they are
    dropped entry-wise and counted on ["store.corrupt_entries"]. *)

val open_dir : ?telemetry:Telemetry.Registry.t -> string -> t
(** Open (creating if needed, including parents) the store, take its
    lock, and load the in-memory index from every segment plus the
    active log. *)

val close : t -> unit
(** Flush, release the lock and mark the store closed (idempotent).
    Lookups on a closed store miss; [put]/[compact] raise
    [Invalid_argument]. *)

val with_store :
  ?telemetry:Telemetry.Registry.t -> string -> (t -> 'a) -> 'a
(** [with_store dir f] opens, runs [f], and closes even on raise. *)

val find : t -> key:string -> Telemetry.Jsonx.t option
(** Index lookup (no disk I/O after open); parses the entry's payload.
    The value renders to the bytes its [put] rendered. *)

val put : t -> key:string -> Telemetry.Jsonx.t -> unit
(** Insert or supersede an entry; appended to the log and flushed before
    returning.  If the write or the flush raises, the entry is not
    served, the log is cut back to the acknowledged puts (none of the
    failed line survives a reopen), later puts go on through a fresh
    descriptor, and the exception is re-raised. *)

val entries : t -> int
(** Number of live (deduplicated) entries. *)

val iter : t -> (string -> unit) -> unit
(** Iterate over the keys of a snapshot of the live entries (unspecified
    order).  Nothing is parsed. *)

val compact : t -> unit
(** Merge all files into one fresh sealed segment and truncate the log.
    If writing the segment raises, its channel is closed, its [.tmp]
    removed and the exception re-raised; the store is left as it was. *)
