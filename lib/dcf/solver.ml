type solution = {
  taus : float array;
  ps : float array;
  iterations : int;
  converged : bool;
}

type class_solution = {
  class_pairs : (float * float) list;
  iterations : int;
  converged : bool;
}

let solve_homogeneous ?(telemetry = Telemetry.Registry.default) ?iterations
    ?(tol = 1e-14) (params : Params.t) ~n ~w =
  if n < 1 then invalid_arg "Solver.solve_homogeneous: need n >= 1";
  if w < 1 then invalid_arg "Solver.solve_homogeneous: window must be >= 1";
  let m = params.max_backoff_stage in
  let report iters =
    (match iterations with Some r -> r := iters | None -> ());
    Telemetry.Registry.emit telemetry "solver_convergence" (fun () ->
        [
          ("method", Telemetry.Jsonx.String "brent");
          ("n", Telemetry.Jsonx.Int n);
          ("w", Telemetry.Jsonx.Int w);
          ("tol", Telemetry.Jsonx.Float tol);
          ("iterations", Telemetry.Jsonx.Int iters);
          ("converged", Telemetry.Jsonx.Bool true);
        ])
  in
  if n = 1 then begin
    report 0;
    (Bianchi.tau_of_p ~w ~m 0., 0.)
  end
  else begin
    (* Defect h(τ) = τ − τ_model(p(τ)): negative at τ→0 and positive at
       τ = 1, with a single crossing (uniqueness per Bianchi).  (w, m) is
       checked once here; Brent keeps τ inside the bracket [1e-15, 1], so
       p(τ) is in [0, 1] and eq. 2 is evaluated unchecked. *)
    Bianchi.check_chain ~w ~m;
    let wf = float_of_int w and others = float_of_int (n - 1) in
    let p_of_tau tau = 1. -. ((1. -. tau) ** others) in
    let defect tau = tau -. Bianchi.tau_unchecked ~wf ~m (p_of_tau tau) in
    let iters = ref 0 in
    let tau = Numerics.Roots.brent ~iterations:iters ~tol defect 1e-15 1. in
    report !iters;
    (tau, p_of_tau tau)
  end

(* ---------------------------------------------------------------- *)
(* Class-space fixed points: one engine for every class entry point. *)
(* ---------------------------------------------------------------- *)

(* x^k for the small integer class counts of the hot loops.  The k ≤ 1
   cases bypass [( ** )] — IEEE pow pins pow(x, 0) = 1 and pow(x, 1) = x
   exactly, so the fast path is bit-identical to the pow the pre-Newton
   solver called, while skipping a libm call per class per iteration
   (singleton classes dominate heterogeneous sweeps).  Inlined: a call
   boxes its float argument and result. *)
let[@inline] powk x k =
  if k = 0 then 1.
  else if k = 1 then x
  else x ** float_of_int k

(* Per-class collision probabilities at an iterate, written into [ps]:
   Π over everyone, then divide out one copy of the own class.  Returns
   the product Π_l(1−τ_l)^{k_l}.  The τ_j ≥ 1 branch recomputes the
   product excluding one member to avoid 0/0; it is the same arithmetic
   the pre-Newton solver performed, kept bit-identical because the
   degenerate conformance group pins this path. *)
let class_ps_into ~ks taus ps =
  let c = Array.length taus in
  let product = ref 1. in
  for j = 0 to c - 1 do
    product := !product *. powk (1. -. taus.(j)) ks.(j)
  done;
  for j = 0 to c - 1 do
    let others =
      if taus.(j) >= 1. then begin
        let rest = ref (powk (1. -. taus.(j)) (ks.(j) - 1)) in
        for j' = 0 to c - 1 do
          if j' <> j then
            rest := !rest *. powk (1. -. taus.(j')) ks.(j')
        done;
        !rest
      end
      else !product /. (1. -. taus.(j))
    in
    ps.(j) <- Prelude.Util.clamp ~lo:0. ~hi:1. (1. -. others)
  done;
  !product

(* Cold-start seed: pool the whole network into one homogeneous
   pseudo-class (count-weighted mean window) and Brent-solve its scalar
   fixed point to 1e-6, then seed every class at its own Bianchi
   response to the pooled collision probability.  That lands the iterate
   2–3 decades closer to the solution than the no-collision 2/(W+1)
   start and typically saves one or two quadratic steps — a material
   fraction of a six-iteration solve.  The seed reads the CW knob only:
   AIFS shapes the map, not the seed.  Returns [None] (caller falls back
   to 2/(W+1)) on trivial networks or when the scalar proxy degenerates.
   [wfs] are the windows as floats, already checked with the stage
   count. *)
let newton_cold_x0 ?telemetry (params : Params.t) ~ws ~wfs ~ks =
  let c = Array.length ws in
  let n_total = Array.fold_left ( + ) 0 ks in
  if n_total < 2 then None
  else begin
    let wsum = ref 0 in
    for j = 0 to c - 1 do
      wsum := !wsum + (ws.(j) * ks.(j))
    done;
    let mean_w = max 1 (!wsum / n_total) in
    match solve_homogeneous ?telemetry ~tol:1e-6 params ~n:n_total ~w:mean_w with
    | exception _ -> None
    | _, p_star ->
        if p_star > 0. && p_star < 1. then begin
          let x0 = Array.make c 0. in
          for j = 0 to c - 1 do
            x0.(j) <-
              Bianchi.tau_unchecked ~wf:wfs.(j) ~m:params.max_backoff_stage
                p_star
          done;
          Some x0
        end
        else None
  end

(* The class engine behind [solve_classes], [solve_strategy_classes] and
   [solve_profile]: class j has [ks.(j)] members on
   window [ws.(j)] that defer [aifs.(j)] extra slots (0 for CW-only
   classes).  AIFS enters the coupled system through an eligibility
   factor: a node deferring a extra slots after every busy period can
   only start in a slot if none of the preceding a slots was busy for it,
   which in the mean-field model happens with probability (1 − p)^a.  Its
   effective per-slot transmission probability is therefore
   φ_j(p) = (1 − p)^a · τB(W_j, p), and it is φ_j that other nodes see
   when computing their collision probabilities.

   [x0], when given, is owned by the engine: entries outside (0, 1) are
   replaced in place by the no-collision start 2/(W+1), the rest seed
   their class as given.  Without it the solve starts from the pooled
   proxy, or from 2/(W+1) where the proxy gives none.  Returns per-class
   τ and p in class order.

   (w, m) is checked once per solve, with {!Bianchi.tau_of_p}'s errors;
   the map then evaluates eq. 2 unchecked on p in [0, 1] (or NaN, which
   the check would let through too).  The solve owns its buffers: the
   map writes its value into [fx] and the collision probabilities into
   [ps], and records in [at] the bits of the iterate they belong to and
   in [product] Π(1−τ_l)^{k_l} there.  The solver reads a map value
   before the next evaluation and steps from, or returns, only the latest
   map argument ({!Numerics.Newton.solve}), so the Newton step and the
   final probabilities find the product and every p_j of their iterate
   already computed, with the same bits; they recompute only if the
   iterate's bits differ from [at].  The solve runs to a max-norm defect
   of 1e-14. *)
let solve_class_arrays ?telemetry ?x0 ~max_iter (params : Params.t) ~ws
    ~aifs ~ks =
  let m = params.max_backoff_stage in
  let c = Array.length ws in
  Array.iter (fun w -> Bianchi.check_chain ~w ~m) ws;
  let wfs = Array.map float_of_int ws in
  let fx = Array.make c 0. in
  let ps = Array.make c 0. in
  let at = Array.make c 0. in
  let product = [| 1. |] in
  let collide taus =
    Array.blit taus 0 at 0 c;
    product.(0) <- class_ps_into ~ks taus ps
  in
  let collide_at taus =
    let same = ref true in
    for j = 0 to c - 1 do
      if Int64.bits_of_float taus.(j) <> Int64.bits_of_float at.(j) then
        same := false
    done;
    if not !same then collide taus
  in
  let step taus =
    collide taus;
    Bianchi.taus_unchecked_into ~wfs ~m ps fx;
    for j = 0 to c - 1 do
      if aifs.(j) <> 0 then fx.(j) <- powk (1. -. ps.(j)) aifs.(j) *. fx.(j)
    done;
    fx
  in
  (* Newton step for g_j(τ) = φ_j(p_j(τ)), exploiting the rank-one
     structure of the Jacobian.  With O_j = Π_l(1−τ_l)^{k_l} / (1−τ_j)
     and p_j = 1 − O_j,

        ∂p_j/∂τ_i = (k_i − δ_ij)·O_j/(1−τ_i)
        J_ji = φ'_j(p_j)·(k_i − δ_ij)·O_j/(1−τ_i) = u_j·v_i − δ_ij·u_j/(1−τ_j)

     with u_j = φ'_j(p_j)·O_j and v_i = k_i/(1−τ_i).  The Newton system
     (I − J)·δ = defect is therefore (D − u·vᵀ)·δ = defect with
     D = diag(1 + u_j/(1−τ_j)), solved in O(c) by Sherman–Morrison:

        δ = D⁻¹d + D⁻¹u·(vᵀD⁻¹d)/(1 − vᵀD⁻¹u).

     φ'_j is taken in its τ form: τB = 2/D(p) gives
     dτB/dp = −W·S·τB²/2 with S = Σ_{i<m}(i+1)(2p)^i, and the map value
     φ_j = τ_j + defect_j is already in hand (up to one rounding), so no
     τB is re-derived — a derivative-only shortcut, never a τ result.
     AIFS classes add the eligibility factor's product rule,
     φ'_j = (1−p)^a·dτB/dp − a·(1−p)^{a−1}·τB, with τB = φ_j/(1−p)^a
     except where the factor underflows near p = 1.

     The product and p_j are the map's at this iterate (every τ_j < 1
     here, so p_j is 1 − O_j clamped, as the map computed it).

     Returns [None] near the τ = 1 boundary (where the product shortcut
     and the derivative both degenerate), on a near-singular diagonal or
     denominator, and on any non-finite intermediate — {!Numerics.Newton}
     then takes one damped sweep instead.  The step writes into
     two buffers allocated once per solve; the solver reads [delta]
     before the next step overwrites it. *)
  let d_inv_defect = Array.make c 0. in
  let d_inv_u = Array.make c 0. in
  let some_delta = Some d_inv_defect in
  let newton_step taus defect =
    let usable = ref true in
    for j = 0 to c - 1 do
      if not (Float.is_finite taus.(j)) || taus.(j) >= 1. then usable := false
    done;
    if not !usable then None
    else begin
      collide_at taus;
      let product = product.(0) in
      try
        let v_dot_d = ref 0. and v_dot_u = ref 0. in
        for j = 0 to c - 1 do
          let one_m = 1. -. taus.(j) in
          let o_j = product /. one_m in
          let p_j = ps.(j) in
          let phi_j = taus.(j) +. defect.(j) in
          let s = ref 0. and pow = ref 1. in
          for i = 0 to m - 1 do
            s := !s +. (float_of_int (i + 1) *. !pow);
            pow := !pow *. 2. *. p_j
          done;
          let a = aifs.(j) in
          let u_j =
            if a = 0 then -0.5 *. wfs.(j) *. !s *. phi_j *. phi_j *. o_j
            else begin
              let elig = powk (1. -. p_j) a in
              let tau_b =
                if elig > 1e-300 then phi_j /. elig
                else Bianchi.tau_unchecked ~wf:wfs.(j) ~m p_j
              in
              let d = -0.5 *. wfs.(j) *. !s *. tau_b *. tau_b in
              let elig' = float_of_int a *. powk (1. -. p_j) (a - 1) in
              ((elig *. d) -. (elig' *. tau_b)) *. o_j
            end
          in
          let d_j = 1. +. (u_j /. one_m) in
          if (not (Float.is_finite d_j)) || Float.abs d_j < 1e-12 then
            raise Exit;
          let did = defect.(j) /. d_j in
          let diu = u_j /. d_j in
          d_inv_defect.(j) <- did;
          d_inv_u.(j) <- diu;
          let v_j = float_of_int ks.(j) /. one_m in
          v_dot_d := !v_dot_d +. (v_j *. did);
          v_dot_u := !v_dot_u +. (v_j *. diu)
        done;
        let denom = 1. -. !v_dot_u in
        if (not (Float.is_finite denom)) || Float.abs denom < 1e-12 then
          raise Exit;
        let scale = !v_dot_d /. denom in
        for j = 0 to c - 1 do
          d_inv_defect.(j) <- d_inv_defect.(j) +. (d_inv_u.(j) *. scale)
        done;
        some_delta
      with Exit -> None
    end
  in
  (* Warm start: a hinted class starts from a τ of a neighbouring solved
     problem.  The iteration converges to the same fixed point from any
     interior start (a property the test suite probes), so a hint changes
     the path, not the destination — at tolerance level, which is why
     warm-started answers carry a conformance anchor rather than a
     bit-identity claim. *)
  let default_x0 j = 2. /. float_of_int (ws.(j) + 1) in
  let x0 =
    match x0 with
    | Some x0 ->
        Array.iteri
          (fun j g -> if not (g > 0. && g < 1.) then x0.(j) <- default_x0 j)
          x0;
        x0
    | None -> (
        match newton_cold_x0 ?telemetry params ~ws ~wfs ~ks with
        | Some x0 -> x0
        | None -> Array.init c default_x0)
  in
  let o =
    Numerics.Newton.solve ?telemetry ~damping:0.5 ~tol:1e-14 ~max_iter ~lo:0.
      ~hi:1. ~step:newton_step step x0
  in
  collide_at o.value;
  { taus = o.value; ps; iterations = o.iterations; converged = o.converged }

let class_solution (s : solution) =
  {
    class_pairs =
      List.init (Array.length s.taus) (fun j -> (s.taus.(j), s.ps.(j)));
    iterations = s.iterations;
    converged = s.converged;
  }

(* A hint lookup as an engine start vector: 0 marks a class without a
   usable hint. *)
let hinted_x0 tau_hint keys =
  Option.map
    (fun hint -> Array.map (fun key -> Option.value ~default:0. (hint key)) keys)
    tau_hint

(* CW classes as engine arrays: every class at AIFS 0, seeded from the
   hint.  The one CW entry into the engine, behind [solve_classes] and
   [solve_profile]. *)
let solve_cw_arrays ?telemetry ?tau_hint ?(max_iter = 50_000)
    (params : Params.t) ~ws ~ks =
  solve_class_arrays ?telemetry ?x0:(hinted_x0 tau_hint ws) ~max_iter params
    ~ws ~aifs:(Array.make (Array.length ws) 0) ~ks

let solve_classes ?telemetry ?tau_hint ?max_iter (params : Params.t) classes =
  if classes = [] then invalid_arg "Solver.solve_classes: no classes";
  List.iter
    (fun (w, k) ->
      if w < 1 then invalid_arg "Solver.solve_classes: window must be >= 1";
      if k < 1 then invalid_arg "Solver.solve_classes: count must be >= 1")
    classes;
  class_solution
    (solve_cw_arrays ?telemetry ?tau_hint ?max_iter params
       ~ws:(Array.of_list (List.map fst classes))
       ~ks:(Array.of_list (List.map snd classes)))

(* Validated strategy classes as engine arrays.  TXOP and rate do not
   change the contention fixed point (they change channel occupancy and
   payoff, priced downstream), so only CW and AIFS reach the engine. *)
let strategy_arrays classes =
  if classes = [] then invalid_arg "Solver.solve_strategy_classes: no classes";
  List.iter
    (fun ((s : Strategy_space.t), k) ->
      (match Strategy_space.validate s with
      | Ok () -> ()
      | Error e -> invalid_arg ("Solver.solve_strategy_classes: " ^ e));
      if k < 1 then
        invalid_arg "Solver.solve_strategy_classes: count must be >= 1")
    classes;
  let ss = Array.of_list (List.map fst classes) in
  ( ss,
    Array.map (fun (s : Strategy_space.t) -> s.cw) ss,
    Array.map (fun (s : Strategy_space.t) -> s.aifs) ss,
    Array.of_list (List.map snd classes) )

let solve_strategy_classes ?telemetry ?tau_hint ?(max_iter = 50_000)
    (params : Params.t) classes =
  let ss, ws, aifs, ks = strategy_arrays classes in
  class_solution
    (solve_class_arrays ?telemetry ?x0:(hinted_x0 tau_hint ss) ~max_iter
       params ~ws ~aifs ~ks)

type profile_classes = {
  windows : int array;
  counts : int array;
  node_class : int array;
  class_taus : float array;
  class_ps : float array;
  iterations : int;
  converged : bool;
}

let solve_profile_classes ?telemetry ?tau_hint ?max_iter (params : Params.t)
    cws =
  let n = Array.length cws in
  if n = 0 then invalid_arg "Solver.solve_profile: empty network";
  Array.iter
    (fun w -> if w < 1 then invalid_arg "Solver.solve_profile: window must be >= 1")
    cws;
  (* Group equal windows into classes: nodes sharing a window share (τ, p)
     by symmetry, so the fixed point collapses to one dimension per
     distinct window — a 100-node profile with 3 distinct windows costs the
     same as n = 3.  Classes run in ascending window order, as the engine
     has always seen them. *)
  let sorted = Array.copy cws in
  Prelude.Util.sort_ints sorted n;
  let c = ref 1 in
  for i = 1 to n - 1 do
    if sorted.(i) <> sorted.(i - 1) then incr c
  done;
  let c = !c in
  let ws = Array.make c sorted.(0) and ks = Array.make c 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if sorted.(i) <> ws.(!j) then begin
      incr j;
      ws.(!j) <- sorted.(i)
    end;
    ks.(!j) <- ks.(!j) + 1
  done;
  (* Each node's class, by binary search over the ascending windows. *)
  let node_class = Array.make n 0 in
  for i = 0 to n - 1 do
    let w = cws.(i) in
    let lo = ref 0 and hi = ref (c - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if ws.(mid) < w then lo := mid + 1 else hi := mid
    done;
    node_class.(i) <- !lo
  done;
  let solved = solve_cw_arrays ?telemetry ?tau_hint ?max_iter params ~ws ~ks in
  {
    windows = ws;
    counts = ks;
    node_class;
    class_taus = solved.taus;
    class_ps = solved.ps;
    iterations = solved.iterations;
    converged = solved.converged;
  }

let per_node pc values =
  let n = Array.length pc.node_class in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    out.(i) <- values.(pc.node_class.(i))
  done;
  out

let solve_profile ?telemetry ?tau_hint ?max_iter (params : Params.t) cws =
  let pc = solve_profile_classes ?telemetry ?tau_hint ?max_iter params cws in
  {
    taus = per_node pc pc.class_taus;
    ps = per_node pc pc.class_ps;
    iterations = pc.iterations;
    converged = pc.converged;
  }
