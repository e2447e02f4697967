(* Tests for root finding, fixed-point iteration and 1-D optimisation. *)

open Numerics

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Prelude.Util.approx_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* {1 Roots} *)

let test_bisect_linear () =
  check_close "root of x-3" 3. (Roots.bisect (fun x -> x -. 3.) 0. 10.)

let test_bisect_endpoint_root () =
  check_close "root at lower endpoint" 2. (Roots.bisect (fun x -> x -. 2.) 2. 5.);
  check_close "root at upper endpoint" 5. (Roots.bisect (fun x -> x -. 5.) 2. 5.)

let test_bisect_no_bracket () =
  Alcotest.check_raises "same sign" Roots.No_bracket (fun () ->
      ignore (Roots.bisect (fun x -> (x *. x) +. 1.) (-1.) 1.))

let test_bisect_decreasing () =
  check_close "decreasing function" 2. (Roots.bisect (fun x -> 4. -. (x *. x)) 0. 10.)

let test_brent_polynomial () =
  check_close "cube root of 2" (Float.cbrt 2.)
    (Roots.brent (fun x -> (x ** 3.) -. 2.) 0. 2.)

let test_brent_transcendental () =
  (* cos x = x has the Dottie number as root. *)
  check_close ~eps:1e-10 "dottie number" 0.7390851332151607
    (Roots.brent (fun x -> cos x -. x) 0. 1.)

let test_brent_no_bracket () =
  Alcotest.check_raises "same sign" Roots.No_bracket (fun () ->
      ignore (Roots.brent (fun x -> x +. 10.) 0. 1.))

let test_brent_matches_bisect =
  QCheck.Test.make ~name:"brent agrees with bisect on monotone cubics" ~count:100
    QCheck.(float_range (-5.) 5.)
    (fun shift ->
      let f x = (x *. x *. x) +. x -. shift in
      let b = Roots.bisect f (-10.) 10. and br = Roots.brent f (-10.) 10. in
      Prelude.Util.approx_equal ~eps:1e-6 b br)

let test_find_bracket () =
  match Roots.find_bracket (fun x -> x -. 100.) 0. 1. with
  | Some (lo, hi) ->
      Alcotest.(check bool) "brackets the root" true (lo <= 100. && hi >= 100.)
  | None -> Alcotest.fail "expected a bracket"

let test_find_bracket_failure () =
  Alcotest.(check bool) "positive function never brackets" true
    (Roots.find_bracket (fun _ -> 1.) 0. 1. = None)

(* {1 Damped fixed-point iteration}

   [Newton.solve] with a step that always refuses is the damped iteration
   x ← x + λ·(f x − x): the fallback every refused Newton step takes. *)

let damped ?damping ?tol ?max_iter f x0 =
  Newton.solve ?damping ?tol ?max_iter ~step:(fun _ _ -> None) f x0

let test_fixed_point_cosine () =
  let outcome = damped (fun v -> [| cos v.(0) |]) [| 1. |] in
  check_close ~eps:1e-9 "cos fixed point" 0.7390851332151607 outcome.value.(0)

let test_fixed_point_vector () =
  (* x = (y+1)/2, y = x/2 has solution x = 2/3, y = 1/3. *)
  let f v = [| (v.(1) +. 1.) /. 2.; v.(0) /. 2. |] in
  let outcome = damped f [| 0.; 0. |] in
  Alcotest.(check bool) "converged" true outcome.converged;
  check_close "x" (2. /. 3.) outcome.value.(0);
  check_close "y" (1. /. 3.) outcome.value.(1)

let test_fixed_point_respects_max_iter () =
  (* x ← x+1 never converges; each sweep moves x by λ·1. *)
  let outcome = damped ~max_iter:50 (fun v -> [| v.(0) +. 1. |]) [| 0. |] in
  Alcotest.(check bool) "reports divergence" false outcome.converged;
  Alcotest.(check int) "stopped at cap" 50 outcome.iterations;
  Alcotest.(check (float 0.)) "50 half steps" 25. outcome.value.(0)

let test_fixed_point_damping_validation () =
  Alcotest.check_raises "zero damping"
    (Invalid_argument "Newton.solve: damping must be in (0, 1]") (fun () ->
      ignore (damped ~damping:0. Fun.id [| 1. |]));
  Alcotest.check_raises "damping above 1"
    (Invalid_argument "Newton.solve: damping must be in (0, 1]") (fun () ->
      ignore (damped ~damping:1.5 Fun.id [| 1. |]))

let test_fixed_point_preserves_input () =
  let x0 = [| 1.; 2. |] in
  let _ = damped (fun v -> Array.map (fun x -> x /. 2.) v) x0 in
  Alcotest.(check (array (float 0.))) "input unmutated" [| 1.; 2. |] x0

let test_fixed_point_tolerance_is_undamped () =
  (* Convergence is judged on the undamped defect |f(x) − x|.  Testing
     the damped step instead would let a map drifting by 1.5e-12 per
     iteration — above tol — converge at the default damping 0.5 (step
     0.75e-12 ≤ 1e-12).  It must run to the cap. *)
  let drift d = fun v -> [| v.(0) +. d |] in
  let outcome = damped ~tol:1e-12 ~max_iter:200 (drift 1.5e-12) [| 0. |] in
  Alcotest.(check bool) "drift above tol never converges" false
    outcome.converged;
  Alcotest.(check int) "ran to the cap" 200 outcome.iterations;
  (* And a defect genuinely below tol converges immediately, returning the
     current iterate unstepped. *)
  let outcome = damped ~tol:1e-12 ~max_iter:200 (drift 9e-13) [| 0. |] in
  Alcotest.(check bool) "defect below tol converges" true outcome.converged;
  Alcotest.(check int) "at the first test" 0 outcome.iterations;
  Alcotest.(check (float 0.)) "value left unstepped" 0. outcome.value.(0)

let test_fixed_point_nonfinite_is_failure () =
  let outcome = damped (fun _ -> [| Float.nan |]) [| 0.5 |] in
  Alcotest.(check bool) "NaN map reports non-convergence" false
    outcome.converged;
  Alcotest.(check bool) "residual is non-finite" false
    (Float.is_finite outcome.residual)

let test_fixed_point_full_damping_is_picard =
  QCheck.Test.make ~name:"damping=1 solves affine contractions exactly" ~count:100
    QCheck.(pair (float_range (-0.9) 0.9) (float_range (-10.) 10.))
    (fun (a, b) ->
      (* x = a·x + b has fixed point b/(1−a). *)
      let outcome =
        damped ~damping:1. (fun v -> [| (a *. v.(0)) +. b |]) [| 0. |]
      in
      outcome.converged
      && Prelude.Util.approx_equal ~eps:1e-6 (b /. (1. -. a)) outcome.value.(0))

(* {1 Newton} *)

let test_gauss_solve () =
  (* 2x + y = 3, x + 3y = 5 has solution (0.8, 1.4). *)
  match Newton.gauss_solve [| [| 2.; 1. |]; [| 1.; 3. |] |] [| 3.; 5. |] with
  | Some x ->
      check_close "x" 0.8 x.(0);
      check_close "y" 1.4 x.(1)
  | None -> Alcotest.fail "regular system must solve"

let test_gauss_solve_singular () =
  Alcotest.(check bool) "singular system refused" true
    (Newton.gauss_solve [| [| 1.; 2. |]; [| 2.; 4. |] |] [| 1.; 1. |] = None)

let test_newton_affine_one_step () =
  (* f(x) = A·x + b is exactly linear, so the first accepted Newton step
     lands on the fixed point (I − A)⁻¹·b. *)
  let a = [| [| 0.5; 0.2 |]; [| 0.1; 0.3 |] |] in
  let f v =
    Array.init 2 (fun r -> (a.(r).(0) *. v.(0)) +. (a.(r).(1) *. v.(1)) +. 1.)
  in
  let outcome =
    Newton.solve ~step:(Newton.dense_step ~jacobian:(fun _ -> a)) f [| 0.; 0. |]
  in
  Alcotest.(check bool) "converged" true outcome.converged;
  Alcotest.(check int) "one accepted Newton step" 1 outcome.newton_steps;
  Alcotest.(check int) "no fallbacks" 0 outcome.fallback_steps;
  (* (I − A)⁻¹·b with b = (1, 1): det(I − A) = 0.33. *)
  check_close "x" (0.9 /. 0.33) outcome.value.(0);
  check_close "y" (0.6 /. 0.33) outcome.value.(1)

let test_newton_fallback_is_damped_picard () =
  (* A step closure that always refuses degrades the solve to the damped
     iteration, written out here: the same iterates, bit for bit, zero
     accepted Newton steps, and the Dottie number. *)
  let newton =
    Newton.solve ~step:(fun _ _ -> None) (fun v -> [| cos v.(0) |]) [| 1. |]
  in
  let rec sweep x k =
    let d = cos x -. x in
    if Float.abs d <= 1e-12 then (x, k) else sweep (x +. (0.5 *. d)) (k + 1)
  in
  let x, sweeps = sweep 1. 0 in
  Alcotest.(check bool) "converged" true newton.converged;
  Alcotest.(check int) "no Newton steps" 0 newton.newton_steps;
  Alcotest.(check int) "every iteration fell back" sweeps
    newton.fallback_steps;
  Alcotest.(check int) "iterations" sweeps newton.iterations;
  Alcotest.(check (float 0.)) "the damped iterate" x newton.value.(0);
  check_close ~eps:1e-10 "dottie number" 0.7390851332151607 newton.value.(0)

let test_newton_beats_picard_on_cosine () =
  let f v = [| cos v.(0) |] in
  let jacobian v = [| [| -.sin v.(0) |] |] in
  let newton = Newton.solve ~step:(Newton.dense_step ~jacobian) f [| 1. |] in
  let refused = Newton.solve ~step:(fun _ _ -> None) f [| 1. |] in
  Alcotest.(check bool) "converged" true
    (newton.converged && refused.converged);
  check_close ~eps:1e-10 "dottie number" 0.7390851332151607 newton.value.(0);
  Alcotest.(check bool)
    (Printf.sprintf "newton %d iters < damped %d" newton.iterations
       refused.iterations)
    true
    (newton.iterations < refused.iterations)

let test_newton_respects_max_iter () =
  let outcome =
    Newton.solve ~max_iter:5
      ~step:(fun _ _ -> None)
      (fun v -> [| v.(0) +. 1. |])
      [| 0. |]
  in
  Alcotest.(check bool) "reports divergence" false outcome.converged;
  Alcotest.(check int) "stopped at cap" 5 outcome.iterations

let test_newton_clamps_iterates () =
  (* A map drifting below the box: iterates pin at lo and the solve ends
     non-converged rather than wandering out of the feasible region. *)
  let outcome =
    Newton.solve ~lo:0. ~hi:1. ~max_iter:20
      ~step:(fun _ _ -> None)
      (fun v -> [| v.(0) -. 1. |])
      [| 0.5 |]
  in
  Alcotest.(check bool) "non-converged" false outcome.converged;
  Alcotest.(check (float 0.)) "pinned at the box floor" 0. outcome.value.(0)

(* The solver reads each map value before the next call and hands [step]
   and the caller only the latest map argument, so a map may return one
   buffer and leave work at its argument for reuse (the class solver
   does both).  The step refuses, overshoots (a rejected candidate) and
   takes dense Newton steps in turn. *)
let test_map_call_contract () =
  let buf = [| 0.; 0. |] and last = [| nan; nan |] in
  let latest x =
    Array.for_all2
      (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
      x last
  in
  let f v =
    Array.blit v 0 last 0 2;
    buf.(0) <- cos v.(0);
    buf.(1) <- 0.5 *. sin v.(1);
    buf
  in
  let jacobian v = [| [| -.sin v.(0); 0. |]; [| 0.; 0.5 *. cos v.(1) |] |] in
  let calls = ref 0 in
  let step x d =
    incr calls;
    if not (latest x) then
      Alcotest.fail "step called off the latest map argument";
    match !calls mod 3 with
    | 0 -> None
    | 1 -> Some (Array.map (fun di -> 10. *. di) d)
    | _ -> Newton.dense_step ~jacobian x d
  in
  let newton = Newton.solve ~step f [| 1.; 1. |] in
  Alcotest.(check bool) "newton converged" true newton.converged;
  Alcotest.(check bool) "newton took steps and fell back" true
    (newton.newton_steps > 0 && newton.fallback_steps > 0);
  Alcotest.(check bool) "newton value is the latest map argument" true
    (latest newton.value)

(* {1 Optimize} *)

let test_golden_section () =
  let x, v = Optimize.golden_section_max (fun x -> -.((x -. 2.) ** 2.)) 0. 10. in
  check_close ~eps:1e-6 "argmax" 2. x;
  check_close ~eps:1e-6 "max value" 0. v

let test_golden_section_boundary_max () =
  let x, _ = Optimize.golden_section_max Fun.id 0. 5. in
  check_close ~eps:1e-6 "monotone function maxes at boundary" 5. x

let test_exhaustive_int_max () =
  let w, v = Optimize.exhaustive_int_max (fun x -> float_of_int (-(x - 7) * (x - 7))) 0 20 in
  Alcotest.(check int) "argmax" 7 w;
  check_close "value" 0. v;
  Alcotest.check_raises "empty range"
    (Invalid_argument "Optimize.exhaustive_int_max: empty range") (fun () ->
      ignore (Optimize.exhaustive_int_max float_of_int 5 4))

let test_exhaustive_ties_take_smallest () =
  let w, _ = Optimize.exhaustive_int_max (fun _ -> 1.) 3 9 in
  Alcotest.(check int) "first of ties" 3 w

let test_ternary_int_max_unimodal () =
  let f x = -.Float.abs (float_of_int x -. 123.) in
  let w, v = Optimize.ternary_int_max f 1 1000 in
  Alcotest.(check int) "argmax" 123 w;
  check_close "value" 0. v

let test_ternary_int_max_small_ranges () =
  List.iter
    (fun (lo, hi) ->
      let f x = float_of_int (-(x * x) + (6 * x)) in
      let expected, _ = Optimize.exhaustive_int_max f lo hi in
      let got, _ = Optimize.ternary_int_max f lo hi in
      Alcotest.(check int) (Printf.sprintf "range [%d,%d]" lo hi) expected got)
    [ (0, 0); (0, 1); (0, 2); (0, 3); (2, 4); (3, 3); (0, 10) ]

let test_ternary_matches_exhaustive =
  QCheck.Test.make ~name:"ternary = exhaustive on unimodal integer curves"
    ~count:200
    QCheck.(pair (int_range 0 500) (int_range 1 400))
    (fun (peak, half_range) ->
      let lo = peak - half_range and hi = peak + half_range in
      let f x = -.((float_of_int (x - peak)) ** 2.) in
      let we, _ = Optimize.exhaustive_int_max f lo hi in
      let wt, _ = Optimize.ternary_int_max f lo hi in
      we = wt)

let test_hill_climb () =
  let f x = -.((float_of_int x -. 42.) ** 2.) in
  let w, _ = Optimize.hill_climb_int_max ~start:10 f 1 100 in
  Alcotest.(check int) "climbs to the peak" 42 w;
  let w_from_right, _ = Optimize.hill_climb_int_max ~start:99 f 1 100 in
  Alcotest.(check int) "from the right too" 42 w_from_right

let test_hill_climb_start_validation () =
  Alcotest.check_raises "start outside range"
    (Invalid_argument "Optimize.hill_climb_int_max: start out of range") (fun () ->
      ignore (Optimize.hill_climb_int_max ~start:0 float_of_int 1 10))

let test_hill_climb_plateau_terminates () =
  (* Flat function: must stop immediately rather than wander. *)
  let w, v = Optimize.hill_climb_int_max ~start:5 (fun _ -> 1.) 1 10 in
  Alcotest.(check int) "stays put on plateau" 5 w;
  check_close "plateau value" 1. v

let test_memoization_counts_calls () =
  let calls = ref 0 in
  let f x =
    incr calls;
    -.((float_of_int x -. 50.) ** 2.)
  in
  let _ = Optimize.ternary_int_max f 1 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "O(log) evaluations, got %d" !calls)
    true (!calls < 60)

let suite_roots =
  [
    Alcotest.test_case "bisect linear" `Quick test_bisect_linear;
    Alcotest.test_case "bisect endpoint roots" `Quick test_bisect_endpoint_root;
    Alcotest.test_case "bisect no bracket" `Quick test_bisect_no_bracket;
    Alcotest.test_case "bisect decreasing" `Quick test_bisect_decreasing;
    Alcotest.test_case "brent polynomial" `Quick test_brent_polynomial;
    Alcotest.test_case "brent transcendental" `Quick test_brent_transcendental;
    Alcotest.test_case "brent no bracket" `Quick test_brent_no_bracket;
    QCheck_alcotest.to_alcotest test_brent_matches_bisect;
    Alcotest.test_case "find_bracket grows" `Quick test_find_bracket;
    Alcotest.test_case "find_bracket gives up" `Quick test_find_bracket_failure;
  ]

let suite_fixed_point =
  [
    Alcotest.test_case "scalar cosine" `Quick test_fixed_point_cosine;
    Alcotest.test_case "vector affine" `Quick test_fixed_point_vector;
    Alcotest.test_case "max_iter cap" `Quick test_fixed_point_respects_max_iter;
    Alcotest.test_case "damping validation" `Quick test_fixed_point_damping_validation;
    Alcotest.test_case "input preserved" `Quick test_fixed_point_preserves_input;
    Alcotest.test_case "tolerance is undamped" `Quick
      test_fixed_point_tolerance_is_undamped;
    Alcotest.test_case "non-finite map fails" `Quick
      test_fixed_point_nonfinite_is_failure;
    QCheck_alcotest.to_alcotest test_fixed_point_full_damping_is_picard;
  ]

let suite_newton =
  [
    Alcotest.test_case "gauss solve" `Quick test_gauss_solve;
    Alcotest.test_case "gauss singular" `Quick test_gauss_solve_singular;
    Alcotest.test_case "affine one step" `Quick test_newton_affine_one_step;
    Alcotest.test_case "fallback is damped picard" `Quick
      test_newton_fallback_is_damped_picard;
    Alcotest.test_case "beats picard on cosine" `Quick
      test_newton_beats_picard_on_cosine;
    Alcotest.test_case "max_iter cap" `Quick test_newton_respects_max_iter;
    Alcotest.test_case "clamp box" `Quick test_newton_clamps_iterates;
    Alcotest.test_case "map may share a buffer" `Quick test_map_call_contract;
  ]

let suite_optimize =
  [
    Alcotest.test_case "golden section quadratic" `Quick test_golden_section;
    Alcotest.test_case "golden section boundary" `Quick test_golden_section_boundary_max;
    Alcotest.test_case "exhaustive max" `Quick test_exhaustive_int_max;
    Alcotest.test_case "exhaustive tie-breaking" `Quick test_exhaustive_ties_take_smallest;
    Alcotest.test_case "ternary unimodal" `Quick test_ternary_int_max_unimodal;
    Alcotest.test_case "ternary small ranges" `Quick test_ternary_int_max_small_ranges;
    QCheck_alcotest.to_alcotest test_ternary_matches_exhaustive;
    Alcotest.test_case "hill climb" `Quick test_hill_climb;
    Alcotest.test_case "hill climb validation" `Quick test_hill_climb_start_validation;
    Alcotest.test_case "hill climb plateau" `Quick test_hill_climb_plateau_terminates;
    Alcotest.test_case "ternary memoises" `Quick test_memoization_counts_calls;
  ]

let () =
  Alcotest.run "numerics"
    [
      ("roots", suite_roots);
      ("fixed_point", suite_fixed_point);
      ("newton", suite_newton);
      ("optimize", suite_optimize);
    ]
