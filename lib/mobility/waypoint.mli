(** The random waypoint mobility model used in Sec. VII.B.

    Each node picks a uniform destination in the area and a uniform speed
    in [speed_min, speed_max], walks there in a straight line, then
    immediately picks the next waypoint (zero pause time, as in the paper's
    scenario: 100 nodes, 1000 m × 1000 m, speeds in [0, 5] m/s).

    A node whose drawn speed is (near) zero keeps its position until the
    next waypoint draw — matching the well-known speed-decay caveat of the
    model, which the tests pin down. *)

type config = {
  width : float;
  height : float;
  speed_min : float;   (** m/s, ≥ 0 *)
  speed_max : float;   (** m/s, ≥ speed_min *)
}

type t

val create : ?seed:int -> config -> n:int -> t
(** [n] nodes at independent uniform positions, each already heading to its
    first waypoint. *)

val positions : t -> Geom.point array
(** Current positions (a fresh copy). *)

val step : t -> dt:float -> unit
(** Advance every node [dt > 0] seconds, re-drawing waypoints as they are
    reached (several per step if the step is long).

    Each node draws from its own RNG stream (split from the seed in index
    order), and a leg finished mid-step hands its leftover time budget to
    the next leg.  Together these make trajectories depend only on total
    elapsed time, not on how it is sliced: when speeds are strictly
    positive, [step ~dt] twice lands (up to float splicing error) where
    [step ~dt:(2. *. dt)] once does. *)

