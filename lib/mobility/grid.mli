(** Uniform-grid spatial index over node positions.

    Buckets node ids into square cells of a fixed size so that range
    queries (carrier sense, interference neighbourhoods) touch O(local
    density) candidates instead of all n nodes.  Membership is explicit:
    ids are [add]ed, [remove]d and [move]d individually, so the same
    structure serves both a static node index (filled once) and a sparse
    airborne-transmitter set (members come and go per frame).

    {!gather} returns a {e superset} of the requested disk — the members of
    the cells overlapping the padded bounding square — and callers apply
    an exact predicate; {!neighbours} applies the {!Geom.within} predicate
    itself, and {!query} is its list form, the reference for the property
    tests.  Both array queries write into a caller-owned buffer, so a hot
    loop that reuses one buffer allocates nothing.

    The structure is not thread-safe; shard it (one grid per domain)
    rather than sharing it. *)

type t

val create : ?fill:bool -> cell:float -> Geom.point array -> t
(** [create ~cell points] indexes [points] into cells of side [cell];
    point [i] keeps id [i].  [fill] (default true) inserts every id;
    [~fill:false] builds an empty index over the same coordinates (the
    airborne set).  Cell count is derived from the coordinate extent.

    @raise Invalid_argument on a [cell] that is not positive and finite,
    or coordinates that are not finite and non-negative (the grid origin
    is pinned at (0,0)). *)

val length : t -> int
(** Number of ids (present or not). *)

val position : t -> int -> Geom.point
(** Current coordinates of id [i] (tracked even while absent). *)

val add : t -> int -> unit
(** Insert id [i] at its current coordinates; no-op when present. *)

val remove : t -> int -> unit
(** Delete id [i] (swap-remove within its bucket); no-op when absent. *)

val mem : t -> int -> bool

val move : t -> int -> Geom.point -> unit
(** Update id [i]'s coordinates, re-bucketing only when the cell actually
    changes — the incremental path for waypoint walkers, counted by
    {!rebuckets}.  An absent id just has its coordinates updated.

    @raise Invalid_argument on coordinates that are not finite and
    non-negative. *)

val gather : t -> radius:float -> int -> int array -> int
(** [gather t ~radius i buf] writes every {e present} id in the cells
    overlapping the padded square of half-width [radius] around id [i]'s
    coordinates — a superset of the ids within [radius], [i] included
    when present — into [buf]'s prefix and returns their count; the
    caller filters exactly.  A [buf] of {!length} entries always
    suffices.  Ids offered accumulate into {!candidates}.

    @raise Invalid_argument on a negative or NaN radius. *)

val neighbours : t -> radius:float -> int -> int array -> int
(** [neighbours t ~radius i buf] writes the present ids within exactly
    [radius] ({!Geom.within}) of id [i], excluding [i] itself, into
    [buf]'s prefix in increasing order and returns their count — the
    neighbour arrays of {!Topology.adjacency} when the grid holds every
    id.  Same buffer contract and errors as {!gather}. *)

val query : t -> radius:float -> int -> int list
(** {!neighbours} as a list, through a buffer the grid owns. *)

val candidates : t -> int
(** Cumulative ids offered by {!gather} (pre-filter), the measure of how
    selective the cells are. *)

val rebuckets : t -> int
(** Cumulative cell crossings performed by {!move}. *)
