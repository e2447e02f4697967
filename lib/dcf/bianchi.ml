let check_chain ~w ~m =
  if w < 1 then invalid_arg "Bianchi: window must be >= 1";
  if m < 0 then invalid_arg "Bianchi: max stage must be >= 0"

let check_args ~w ~m p =
  check_chain ~w ~m;
  if p < 0. || p > 1. then invalid_arg "Bianchi: p must be in [0, 1]"

let[@inline] tau_unchecked ~wf ~m p =
  2. /. (1. +. wf +. (p *. wf *. Prelude.Util.geometric_sum (2. *. p) m))

(* One call per map evaluation, not one per class: a call across modules
   boxes every float argument and result. *)
let taus_unchecked_into ~wfs ~m ps taus =
  for j = 0 to Array.length ps - 1 do
    taus.(j) <- tau_unchecked ~wf:wfs.(j) ~m ps.(j)
  done

let tau_of_p ~w ~m p =
  check_args ~w ~m p;
  tau_unchecked ~wf:(float_of_int w) ~m p

let dtau_dp ~w ~m p =
  check_args ~w ~m p;
  let wf = float_of_int w in
  (* τ = 2/D with D(p) = 1 + W + p·W·Σ_{j<m}(2p)^j
                       = 1 + W + W·Σ_{j<m} 2^j p^(j+1),
     so dD/dp = W·Σ_{j<m} (j+1)·(2p)^j and dτ/dp = −2·dD/dp / D².  Both
     sums accumulate incrementally (no pow call). *)
  let geom = ref 0. and s = ref 0. and pow = ref 1. in
  for j = 0 to m - 1 do
    geom := !geom +. !pow;
    s := !s +. (float_of_int (j + 1) *. !pow);
    pow := !pow *. 2. *. p
  done;
  let d = 1. +. wf +. (p *. wf *. !geom) in
  -2. *. wf *. !s /. (d *. d)

let tau_of_p_ratio_form ~w ~m p =
  check_args ~w ~m p;
  let wf = float_of_int w in
  let one_m_2p = 1. -. (2. *. p) in
  2. *. one_m_2p
  /. ((one_m_2p *. (wf +. 1.)) +. (p *. wf *. (1. -. ((2. *. p) ** float_of_int m))))

type stationary = { q00 : float; stage_heads : float array; tau : float }

let stationary ~w ~m p =
  check_args ~w ~m p;
  (* Stage-head masses relative to q(0,0): q(j,0) = p^j·q00 for j < m and
     q(m,0) = p^m/(1−p)·q00 (the last stage self-loops on collision).  The
     within-stage column sum is (W_j+1)/2·q(j,0) with W_j = 2^j·w. *)
  let rel = Array.make (m + 1) 1. in
  for j = 1 to m do
    rel.(j) <- rel.(j - 1) *. p
  done;
  if p < 1. then rel.(m) <- rel.(m) /. (1. -. p);
  let mass_rel = ref 0. in
  for j = 0 to m do
    let wj = float_of_int (w lsl j) in
    mass_rel := !mass_rel +. (rel.(j) *. (wj +. 1.) /. 2.)
  done;
  if p >= 1. then begin
    (* Degenerate chain: every attempt collides and all mass concentrates on
       the last stage, which keeps cycling through its window of 2^m·w
       slots; τ = 2/(2^m·w + 1), matching the p → 1 limit of eq. 2. *)
    let wm = float_of_int (w lsl m) in
    let heads = Array.make (m + 1) 0. in
    heads.(m) <- 2. /. (wm +. 1.);
    { q00 = 0.; stage_heads = heads; tau = heads.(m) }
  end
  else begin
    let q00 = 1. /. !mass_rel in
    let stage_heads = Array.map (fun r -> r *. q00) rel in
    let tau = Array.fold_left ( +. ) 0. stage_heads in
    { q00; stage_heads; tau }
  end

let total_mass ~w ~m st =
  if Array.length st.stage_heads <> m + 1 then
    invalid_arg "Bianchi.total_mass: stage count mismatch";
  let total = ref 0. in
  for j = 0 to m do
    let wj = float_of_int (w lsl j) in
    total := !total +. (st.stage_heads.(j) *. (wj +. 1.) /. 2.)
  done;
  !total

let expected_backoff ~w = float_of_int (w - 1) /. 2.
