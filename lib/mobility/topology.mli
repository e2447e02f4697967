(** Neighbourhood graphs from node positions.

    Two nodes are neighbours when they are within transmission range
    (unit-disk model, as the paper assumes: all nodes share a 250 m
    range). *)

val adjacency : range:float -> Geom.point array -> int list array
(** [adjacency ~range positions] — [result.(i)] lists the nodes within
    [range] of node i (excluding i), in increasing index order.  Symmetric
    by construction. *)

val is_connected : int list array -> bool
(** Breadth-first reachability from node 0; true for the empty graph. *)

val largest_component : int list array -> int list
(** Indices of the largest connected component (ties broken by smallest
    representative), in increasing order. *)

val restrict : int list array -> int list -> int list array
(** [restrict adjacency keep] re-indexes the subgraph induced by the nodes
    of [keep] (which must be sorted and duplicate-free): node [keep.(i)]
    becomes node i. *)

val average_degree : int list array -> float

val snapshot :
  ?connect_attempts:int -> Waypoint.t -> range:float -> int list array
(** Adjacency of the walker's current positions.  If [connect_attempts > 0]
    and the graph is disconnected, advance the mobility model by 10-second
    steps up to that many times looking for a connected snapshot (the
    paper's scenario assumes a connected network), returning the last
    snapshot either way. *)
