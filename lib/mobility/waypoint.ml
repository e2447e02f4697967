type config = {
  width : float;
  height : float;
  speed_min : float;
  speed_max : float;
}

type walker = {
  mutable pos : Geom.point;
  mutable goal : Geom.point;
  mutable speed : float;  (* m/s *)
  rng : Prelude.Rng.t;
}

type t = { cfg : config; walkers : walker array }

let validate cfg =
  if cfg.width <= 0. || cfg.height <= 0. then
    invalid_arg "Waypoint.create: area must be positive";
  if cfg.speed_min < 0. || cfg.speed_max < cfg.speed_min then
    invalid_arg "Waypoint.create: need 0 <= speed_min <= speed_max"

let fresh_leg cfg walker =
  walker.goal <- Geom.random_in walker.rng ~width:cfg.width ~height:cfg.height;
  walker.speed <- Prelude.Rng.float_in walker.rng cfg.speed_min cfg.speed_max

let create ?(seed = 0) cfg ~n =
  validate cfg;
  if n < 1 then invalid_arg "Waypoint.create: need n >= 1";
  let master = Prelude.Rng.create seed in
  (* Each walker draws from its own stream (split in index order), so a
     trajectory depends only on the walker's stream and total elapsed time —
     never on how other walkers' leg redraws interleave with its own.  This
     is what makes [step ~dt] granularity-invariant. *)
  let walkers =
    Array.init n (fun _ ->
        let rng = Prelude.Rng.split master in
        let pos = Geom.random_in rng ~width:cfg.width ~height:cfg.height in
        let walker = { pos; goal = pos; speed = 0.; rng } in
        fresh_leg cfg walker;
        walker)
  in
  { cfg; walkers }

let positions t = Array.map (fun w -> w.pos) t.walkers

let step t ~dt =
  if dt <= 0. then invalid_arg "Waypoint.step: dt must be positive";
  let rec advance walker budget =
    if budget > 0. && walker.speed > 0. then begin
      let reach = Geom.distance walker.pos walker.goal in
      let travel = walker.speed *. budget in
      if travel >= reach then begin
        walker.pos <- walker.goal;
        let spent = if walker.speed > 0. then reach /. walker.speed else budget in
        fresh_leg t.cfg walker;
        advance walker (budget -. spent)
      end
      else
        walker.pos <-
          Geom.move_towards ~from:walker.pos ~goal:walker.goal ~dist:travel
    end
    else if walker.speed = 0. then begin
      (* Degenerate zero-speed leg: redraw and keep moving with the budget
         this step still has, so trajectories do not depend on the dt
         granularity.  If the redraw lands on zero speed again (possible
         only when speed_max = 0), give up the rest of the step rather
         than loop forever. *)
      fresh_leg t.cfg walker;
      if budget > 0. && walker.speed > 0. then advance walker budget
    end
  in
  Array.iter (fun w -> advance w dt) t.walkers
