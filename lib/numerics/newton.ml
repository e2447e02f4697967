type outcome = {
  value : float array;
  iterations : int;
  residual : float;
  converged : bool;
  newton_steps : int;
  fallback_steps : int;
}

(* Dense Gaussian elimination with partial pivoting, solving A x = b in
   place (both arguments are clobbered).  Returns [None] when a pivot
   vanishes (singular to working precision) or the input carries a
   non-finite entry, so callers can fall back rather than propagate NaNs. *)
let gauss_solve a b =
  let n = Array.length b in
  if Array.length a <> n then invalid_arg "Newton.gauss_solve: shape mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Newton.gauss_solve: shape mismatch")
    a;
  let ok = ref true in
  (try
     for k = 0 to n - 1 do
       (* Partial pivot: the largest magnitude in column k at/below row k. *)
       let pivot = ref k in
       for i = k + 1 to n - 1 do
         if Float.abs a.(i).(k) > Float.abs a.(!pivot).(k) then pivot := i
       done;
       if !pivot <> k then begin
         let tmp = a.(k) in
         a.(k) <- a.(!pivot);
         a.(!pivot) <- tmp;
         let tb = b.(k) in
         b.(k) <- b.(!pivot);
         b.(!pivot) <- tb
       end;
       let akk = a.(k).(k) in
       if (not (Float.is_finite akk)) || Float.abs akk < 1e-300 then begin
         ok := false;
         raise Exit
       end;
       for i = k + 1 to n - 1 do
         let factor = a.(i).(k) /. akk in
         if factor <> 0. then begin
           a.(i).(k) <- 0.;
           for j = k + 1 to n - 1 do
             a.(i).(j) <- a.(i).(j) -. (factor *. a.(k).(j))
           done;
           b.(i) <- b.(i) -. (factor *. b.(k))
         end
       done
     done
   with Exit -> ());
  if not !ok then None
  else begin
    let x = Array.make n 0. in
    for i = n - 1 downto 0 do
      let s = ref b.(i) in
      for j = i + 1 to n - 1 do
        s := !s -. (a.(i).(j) *. x.(j))
      done;
      x.(i) <- !s /. a.(i).(i)
    done;
    if Array.for_all Float.is_finite x then Some x else None
  end

let dense_step ~jacobian x defect =
  let n = Array.length x in
  let j = jacobian x in
  if Array.length j <> n then None
  else begin
    (* A = I − J, so that A·δ = f(x) − x is the Newton system of the
       defect h(x) = f(x) − x (whose Jacobian is J − I; the sign is folded
       into the right-hand side). *)
    let a =
      Array.init n (fun r ->
          Array.init n (fun c -> (if r = c then 1. else 0.) -. j.(r).(c)))
    in
    gauss_solve a (Array.copy defect)
  end

(* The solve span carries (vector length, iteration budget); interned
   once, since intern takes a lock. *)
let recorder = Telemetry.Recorder.default
let nid_solve = Telemetry.Recorder.intern recorder "newton.solve"

(* Residual trajectories can be as long as max_iter (50k for the class
   solver); cap what one event carries so a diverging solve cannot emit a
   megabyte line. *)
let trajectory_cap = 512

let solve ?(telemetry = Telemetry.Registry.default) ?(damping = 0.5)
    ?(tol = 1e-12) ?(max_iter = 10_000) ?(lo = neg_infinity) ?(hi = infinity)
    ~step f x0 =
  if damping <= 0. || damping > 1. then
    invalid_arg "Newton.solve: damping must be in (0, 1]";
  let n = Array.length x0 in
  let x = Array.copy x0 in
  let newton_steps = ref 0 in
  let fallback_steps = ref 0 in
  (* Two defect buffers swapped between iterations and one candidate
     buffer, all preallocated: the solve allocates nothing per iteration
     beyond what the map and step closures themselves build. *)
  let d_cur = ref (Array.make n 0.) in
  let d_spare = ref (Array.make n 0.) in
  let candidate = Array.make n 0. in
  let defect_into d x fx =
    let worst = ref 0. in
    for i = 0 to n - 1 do
      d.(i) <- fx.(i) -. x.(i);
      let m = Float.abs d.(i) in
      if not (m <= !worst) then worst := m (* NaN-propagating max *)
    done;
    !worst
  in
  let eval y =
    let fy = f y in
    if Array.length fy <> n then
      invalid_arg "Newton.solve: map changed vector length";
    fy
  in
  let clamp v = Float.min hi (Float.max lo v) in
  Telemetry.Recorder.with_span recorder nid_solve n max_iter (fun () ->
      (* Only pay for the per-iteration trajectory when someone is
         listening.  [go] takes it as an argument rather than capturing
         it, so its closure, allocated once per solve, keeps its size. *)
      let trajectory =
        if Telemetry.Registry.active telemetry then Some (ref []) else None
      in
      (* [known] carries the residual already computed for [fx] when the
         caller left the matching defect in [d_cur] — the accept test
         below evaluates the candidate's defect anyway, so an accepted
         step hands it to the next iteration instead of recomputing the
         identical pair. *)
      let rec go trajectory iter fx known =
        let defect = !d_cur in
        let residual =
          match known with Some r -> r | None -> defect_into defect x fx
        in
        (match trajectory with
        | Some l when iter < trajectory_cap -> l := residual :: !l
        | _ -> ());
        if residual <= tol then
          {
            value = x;
            iterations = iter;
            residual;
            converged = true;
            newton_steps = !newton_steps;
            fallback_steps = !fallback_steps;
          }
        else if iter >= max_iter || not (Float.is_finite residual) then
          {
            value = x;
            iterations = iter;
            residual;
            converged = false;
            newton_steps = !newton_steps;
            fallback_steps = !fallback_steps;
          }
        else begin
          let fallback () =
            (* One damped sweep x ← x + λ·(f(x) − x): always available
               and always finite on a finite map, so a solve whose every
               Newton step is refused degrades to the damped fixed-point
               iteration rather than failing. *)
            incr fallback_steps;
            for i = 0 to n - 1 do
              x.(i) <- clamp (x.(i) +. (damping *. defect.(i)))
            done;
            go trajectory (iter + 1) (eval x) None
          in
          match step x defect with
          | None -> fallback ()
          | Some delta when
              Array.length delta <> n
              || not (Array.for_all Float.is_finite delta) ->
              fallback ()
          | Some delta ->
              for i = 0 to n - 1 do
                candidate.(i) <- clamp (x.(i) +. delta.(i))
              done;
              let fc = eval candidate in
              let candidate_residual = defect_into !d_spare candidate fc in
              (* Accept only strictly-contracting steps; anything else —
                 overshoot, NaN, a stall at round-off — falls back to the
                 damped iteration, which keeps its global convergence. *)
              if
                Float.is_finite candidate_residual
                && candidate_residual < residual
              then begin
                incr newton_steps;
                Array.blit candidate 0 x 0 n;
                let freed = !d_cur in
                d_cur := !d_spare;
                d_spare := freed;
                go trajectory (iter + 1) fc (Some candidate_residual)
              end
              else fallback ()
        end
      in
      let outcome = go trajectory 0 (eval x) None in
      Telemetry.Metric.incr
        (Telemetry.Registry.counter telemetry "newton.solves");
      Telemetry.Metric.add
        (Telemetry.Registry.counter telemetry "solver.newton.steps")
        outcome.newton_steps;
      Telemetry.Metric.add
        (Telemetry.Registry.counter telemetry "solver.newton.fallbacks")
        outcome.fallback_steps;
      Telemetry.Registry.emit telemetry "solver_convergence" (fun () ->
          [
            ("method", Telemetry.Jsonx.String "newton");
            ("n", Telemetry.Jsonx.Int n);
            ("tol", Telemetry.Jsonx.Float tol);
            ("iterations", Telemetry.Jsonx.Int outcome.iterations);
            ("newton_steps", Telemetry.Jsonx.Int outcome.newton_steps);
            ("fallback_steps", Telemetry.Jsonx.Int outcome.fallback_steps);
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
                  Telemetry.Jsonx.Bool (outcome.iterations >= trajectory_cap) );
              ])
      | None -> ());
      outcome)
