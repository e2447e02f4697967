(** Disk-backed, content-addressed result cache.

    One JSON file per task result under the cache directory, named by the
    task key's 64-bit FNV-1a fingerprint:

    {v
    _runner_cache/
      1f2e3d4c5b6a7988.json   {"key": "<full task key>", "value": <result>}
    v}

    The full key is stored inside the file and compared on lookup, so a
    fingerprint collision degrades to a miss, never to a wrong result.
    Writes go to a temp file in the same directory followed by a rename,
    so a sweep killed mid-store leaves no truncated entries.  The store is
    shared across sweeps — any task anywhere in the grid with the same
    content key reuses the entry — and safe to call from pool workers. *)

type t

val open_dir : string -> t
(** Opens (creating if needed, including parents) the cache directory. *)

val find : t -> key:string -> Telemetry.Jsonx.t option
(** The stored value for this exact key, or [None] on a missing entry, an
    unreadable/corrupt file, or a fingerprint collision. *)

val store : t -> key:string -> Telemetry.Jsonx.t -> unit
(** Write the entry (temp file, then rename).  If the write raises, the
    channel is closed, the temp file removed and the exception re-raised;
    no entry is written. *)

val entries : t -> int
(** Number of entries currently on disk. *)

type gc_stats = {
  scanned : int;      (** entries examined *)
  evicted : int;      (** entries deleted (including corrupt ones) *)
  corrupt : int;      (** entries deleted because they failed to parse *)
  bytes_freed : int;
  bytes_kept : int;
}

val gc :
  ?telemetry:Telemetry.Registry.t ->
  ?max_age_days:float -> ?max_bytes:int -> t -> gc_stats
(** Collect the cache: corrupt entries are always deleted; entries whose
    mtime is older than [max_age_days] are deleted; then, if the surviving
    entries still exceed [max_bytes], the oldest are deleted until the
    rest fit.  With neither bound, only corrupt entries go.  Every
    eviction increments the ["runner.cache.evicted"] counter on
    [telemetry] (default: the global registry).  Safe to run against a
    live cache — concurrent writers use tmp+rename, so gc never sees a
    half-written entry as sound, and a deleted entry simply recomputes. *)
