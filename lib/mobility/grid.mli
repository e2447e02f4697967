(** Uniform-grid spatial index over node positions.

    Buckets node ids into square cells of a fixed size so that range
    queries (carrier sense, interference neighbourhoods) touch O(local
    density) candidates instead of all n nodes.  The index is built once
    by {!create} and never changes; a new set of positions gets a new
    grid.

    {!gather} returns a {e superset} of the requested disk — the members of
    the cells overlapping the padded bounding square — and callers apply
    an exact predicate; {!query} applies the {!Geom.within} predicate
    itself and is the reference for the property tests.  {!gather} writes
    into a caller-owned buffer, so a hot loop that reuses one buffer
    allocates nothing.

    The structure is not thread-safe; shard it (one grid per domain)
    rather than sharing it. *)

type t

val create : cell:float -> Geom.point array -> t
(** [create ~cell points] indexes [points] into cells of side [cell];
    point [i] keeps id [i].  Cell count is derived from the coordinate
    extent.

    @raise Invalid_argument on a [cell] that is not positive and finite,
    or coordinates that are not finite and non-negative (the grid origin
    is pinned at (0,0)). *)

val cell_order : t -> int array
(** Every id, in the order {!gather} lists candidates: cells in row-major
    order, ascending id within a cell.  Numbering ids by their position
    in this array makes every {!gather} output ascending in that
    numbering. *)

val gather : t -> radius:float -> int -> int array -> int
(** [gather t ~radius i buf] writes every id in the cells overlapping the
    padded square of half-width [radius] around id [i]'s coordinates — a
    superset of the ids within [radius], [i] included — into [buf]'s
    prefix and returns their count; the caller filters exactly.  A [buf]
    with one entry per id always suffices.  Ids offered accumulate into
    {!candidates}.

    @raise Invalid_argument on a negative or NaN radius. *)

val query : t -> radius:float -> int -> int list
(** The ids within exactly [radius] ({!Geom.within}) of id [i], excluding
    [i] itself, in increasing order — the neighbour lists of
    {!Topology.adjacency}.  Same errors as {!gather}. *)

val candidates : t -> int
(** Cumulative ids offered by {!gather} (pre-filter), the measure of how
    selective the cells are. *)
