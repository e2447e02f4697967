type outcome = {
  value : float array;
  iterations : int;
  residual : float;
  converged : bool;
}

(* Residual trajectories can be as long as max_iter (50k for the class
   solver); cap what one event carries so a diverging solve cannot emit a
   megabyte line. *)
let trajectory_cap = 512

(* Flight-recorder names, interned once (intern takes a lock).  The
   solve span carries (vector length, iteration budget). *)
let recorder = Telemetry.Recorder.default
let nid_solve = Telemetry.Recorder.intern recorder "fixed_point.solve"
let nid_phase = Telemetry.Recorder.intern recorder "fixed_point.phase"
let nid_converged = Telemetry.Recorder.intern recorder "fixed_point.converged"

let solve ?(telemetry = Telemetry.Registry.default) ?(damping = 0.5)
    ?(tol = 1e-12) ?(max_iter = 10_000) f x0 =
  if damping <= 0. || damping > 1. then
    invalid_arg "Fixed_point.solve: damping must be in (0, 1]";
  let n = Array.length x0 in
  let x = Array.copy x0 in
  (* Only pay for the per-iteration trajectory when someone is listening. *)
  let trajectory =
    if Telemetry.Registry.active telemetry then Some (ref []) else None
  in
  let kept = ref 0 in
  let note r =
    match trajectory with
    | Some l when !kept < trajectory_cap ->
        incr kept;
        l := r :: !l
    | _ -> ()
  in
  Telemetry.Recorder.with_span recorder nid_solve n max_iter (fun () ->
      let rec go iter =
        let fx = f x in
        if Array.length fx <> n then
          invalid_arg "Fixed_point.solve: map changed vector length";
        (* Convergence is judged on the undamped defect |f(x) − x|: the
           damped update is damping·defect, so testing the step size would
           silently loosen the tolerance by 1/damping (2× at the default).
           The max is NaN-propagating so a map that goes non-finite ends
           as a non-converged outcome, never a spurious success. *)
        let residual = ref 0. in
        for i = 0 to n - 1 do
          let delta = Float.abs (fx.(i) -. x.(i)) in
          if not (delta <= !residual) then residual := delta
        done;
        note !residual;
        (* Sparse progress marks: every power-of-two iteration, carrying
           the residual's binary exponent so a stalled solve is visible
           in a trace without per-iteration cost. *)
        if iter land (iter - 1) = 0 then
          Telemetry.Recorder.instant recorder nid_phase iter
            (snd (Float.frexp !residual));
        if !residual <= tol then
          { value = x; iterations = iter; residual = !residual; converged = true }
        else if iter >= max_iter || not (Float.is_finite !residual) then
          { value = x; iterations = iter; residual = !residual; converged = false }
        else begin
          for i = 0 to n - 1 do
            x.(i) <- ((1. -. damping) *. x.(i)) +. (damping *. fx.(i))
          done;
          go (iter + 1)
        end
      in
      let outcome = go 1 in
      Telemetry.Recorder.instant recorder nid_converged outcome.iterations n;
      Telemetry.Metric.incr
        (Telemetry.Registry.counter telemetry "fixed_point.solves");
      Telemetry.Metric.observe
        (Telemetry.Registry.histogram telemetry "fixed_point.iterations")
        (float_of_int outcome.iterations);
      Telemetry.Registry.emit telemetry "solver_convergence" (fun () ->
          [
            ("method", Telemetry.Jsonx.String "picard");
            ("n", Telemetry.Jsonx.Int n);
            ("damping", Telemetry.Jsonx.Float damping);
            ("tol", Telemetry.Jsonx.Float tol);
            ("iterations", Telemetry.Jsonx.Int outcome.iterations);
            ("residual", Telemetry.Jsonx.Float outcome.residual);
            ("converged", Telemetry.Jsonx.Bool outcome.converged);
          ]);
      (match trajectory with
      | Some l ->
          Telemetry.Registry.emit telemetry "residual_trajectory" (fun () ->
              [
                ("n", Telemetry.Jsonx.Int n);
                ( "residuals",
                  Telemetry.Jsonx.List
                    (List.rev_map (fun r -> Telemetry.Jsonx.Float r) !l) );
                ( "truncated",
                  Telemetry.Jsonx.Bool (outcome.iterations > trajectory_cap) );
              ])
      | None -> ());
      outcome)
