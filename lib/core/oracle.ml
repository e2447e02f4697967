type sim_config = { duration : float; replicates : int; seed : int }

type backend =
  | Analytic
  | Sim_slotted of sim_config
  | Sim_spatial of sim_config

type uniform_view = {
  tau : float;
  p : float;
  utility : float;
  throughput : float;
  slot_time : float;
}

type tier = Memo | Store | Cold

let tier_name = function Memo -> "memo" | Store -> "store" | Cold -> "cold"

exception Non_converged of string

(* A solved heterogeneous profile is stored per strategy class: distinct
   strategies in the canonical (sorted) order, one utility each.  Equal
   strategies share (τ, p) by symmetry, so one float per class answers
   every node — and every permutation of the same multiset. *)
type classes = (Dcf.Strategy_space.t * float) array

(* Keyed by the canonical strategy array.  [Profile.hash] reads every
   strategy: the polymorphic hash stops after ten meaningful words, so
   profiles sharing their three smallest strategies (one deviant among
   n−1 conformers) would all land in one bucket. *)
module Profile_memo = Hashtbl.Make (struct
  type t = Profile.t

  let equal = Profile.equal
  let hash = Profile.hash
end)

(* Keyed by (n, strategy), hashed by the same per-strategy mix. *)
module Uniform_memo = Hashtbl.Make (struct
  type t = int * Dcf.Strategy_space.t

  let equal (n, a) (m, b) = n = m && Dcf.Strategy_space.equal a b
  let hash (n, s) = Profile.hash_uniform ~n s
end)

type t = {
  params : Dcf.Params.t;
  p_hn : float option;
  backend : backend;
  telemetry : Telemetry.Registry.t;
  hits : Telemetry.Metric.counter;
  misses : Telemetry.Metric.counter;
  solves : Telemetry.Metric.counter;
  store_hits : Telemetry.Metric.counter;
  store_misses : Telemetry.Metric.counter;
  nonconverged : Telemetry.Metric.counter;
  warm_iters : Telemetry.Metric.histogram;
  cold_iters : Telemetry.Metric.histogram;
  (* Iteration budget handed to the analytic class solvers; None means the
     solver defaults.  Exists so tests (and cautious deployments) can
     force the non-convergence path and watch it refuse, not fabricate. *)
  solver_max_iter : int option;
  lock : Mutex.t;
  uniform_memo : uniform_view Uniform_memo.t;
  profile_memo : classes Profile_memo.t;
  store : Store.t option;
  (* Lazy: rendering and fingerprinting the full parameter set costs more
     than every other allocation in [create] combined, and an oracle
     without a store may never need its identity.  Forced on first store
     access or [identity] call. *)
  store_prefix : string Lazy.t;
}

(* Flight-recorder names, interned once (intern takes a lock).  Payload
   words: hits/misses carry (n, w) on the uniform path and (n, smallest
   window) on the profile path; solve spans carry the same. *)
let recorder = Telemetry.Recorder.default
let nid_hit = Telemetry.Recorder.intern recorder "oracle.hit"
let nid_miss = Telemetry.Recorder.intern recorder "oracle.miss"
let nid_solve = Telemetry.Recorder.intern recorder "oracle.solve"
let nid_store_hit = Telemetry.Recorder.intern recorder "oracle.store_hit"

let validate_backend = function
  | Analytic -> ()
  | Sim_slotted { duration; replicates; _ }
  | Sim_spatial { duration; replicates; _ } ->
      if not (duration > 0.) then
        invalid_arg "Oracle.create: sim duration must be positive";
      if not (Float.is_finite duration) then
        invalid_arg "Oracle.create: sim duration must be finite";
      if replicates < 1 then
        invalid_arg "Oracle.create: need replicates >= 1"

(* {2 Persistent store keys and codecs}

   Store entries are shared across runs, processes and backends, so every
   key pins down the full evaluation identity: parameter fingerprint,
   backend (with its sim configuration), and p_hn.  Two oracles with
   equal configurations address the same rows; any difference — even one
   sim seed — addresses disjoint ones.

   Schema v2: profile rows key the full (CW, AIFS, TXOP, rate) strategy
   multiset and store per-strategy classes.  v1 rows (bare-window keys,
   [{"w":…}] classes) are refused at open — silently reinterpreting them
   would alias distinct strategies onto their CW projection. *)

let v1_prefix = "oracle|v1|"

let backend_repr = function
  | Analytic -> "analytic"
  | Sim_slotted { duration; replicates; seed } ->
      Printf.sprintf "slotted|dur=%h|rep=%d|seed=%d" duration replicates seed
  | Sim_spatial { duration; replicates; seed } ->
      Printf.sprintf "spatial|dur=%h|rep=%d|seed=%d" duration replicates seed

let store_prefix_of ~params ~p_hn ~backend =
  let params_fp =
    Prelude.Util.hex64
      (Prelude.Util.fnv1a64 (Format.asprintf "%a" Dcf.Params.pp params))
  in
  Printf.sprintf "oracle|v2|params=%s|p_hn=%h|%s" params_fp
    (Option.value p_hn ~default:1.)
    (backend_repr backend)

(* [prefix], [tag], then the profile's strategies joined by ';'.  Degenerate
   strategies render as their bare window (the historical v1 shape, now
   under the v2 prefix); multi-knob ones use the full strategy key.  The
   two alphabets are disjoint ("8" vs "w8.a1…"). *)
let profile_repr prefix tag (sorted : Profile.t) =
  let buf =
    Buffer.create
      (String.length prefix + String.length tag + (6 * Array.length sorted))
  in
  Buffer.add_string buf prefix;
  Buffer.add_string buf tag;
  for i = 0 to Array.length sorted - 1 do
    if i > 0 then Buffer.add_char buf ';';
    let s = sorted.(i) in
    if Dcf.Strategy_space.is_degenerate s then
      Telemetry.Jsonx.add_int buf s.cw
    else Buffer.add_string buf (Dcf.Strategy_space.to_key s)
  done;
  Buffer.contents buf

let uniform_store_key t ~n ~s =
  if Dcf.Strategy_space.is_degenerate s then
    Printf.sprintf "%s|uniform|n=%d|w=%d" (Lazy.force t.store_prefix) n
      s.Dcf.Strategy_space.cw
  else
    Printf.sprintf "%s|uniform|n=%d|s=%s" (Lazy.force t.store_prefix) n
      (Dcf.Strategy_space.to_key s)

let profile_store_key t sorted =
  profile_repr (Lazy.force t.store_prefix) "|profile|" sorted

let view_to_json (v : uniform_view) =
  Telemetry.Jsonx.Obj
    [
      ("tau", Telemetry.Jsonx.Float v.tau);
      ("p", Telemetry.Jsonx.Float v.p);
      ("utility", Telemetry.Jsonx.Float v.utility);
      ("throughput", Telemetry.Jsonx.Float v.throughput);
      ("slot_time", Telemetry.Jsonx.Float v.slot_time);
    ]

let view_of_json json =
  let field name =
    Option.bind (Telemetry.Jsonx.member name json) Telemetry.Jsonx.to_float_opt
  in
  match
    ( field "tau", field "p", field "utility", field "throughput",
      field "slot_time" )
  with
  | Some tau, Some p, Some utility, Some throughput, Some slot_time ->
      Some { tau; p; utility; throughput; slot_time }
  | _ -> None

let classes_to_json (classes : classes) =
  Telemetry.Jsonx.List
    (Array.to_list
       (Array.map
          (fun (s, u) ->
            Telemetry.Jsonx.Obj
              [
                ("s", Dcf.Strategy_space.to_json s);
                ("u", Telemetry.Jsonx.Float u);
              ])
          classes))

let classes_of_json json =
  match json with
  | Telemetry.Jsonx.List items ->
      let decoded =
        List.filter_map
          (fun item ->
            match
              ( Telemetry.Jsonx.member "s" item,
                Option.bind
                  (Telemetry.Jsonx.member "u" item)
                  Telemetry.Jsonx.to_float_opt )
            with
            | Some sj, Some u -> (
                match Dcf.Strategy_space.of_json sj with
                | Ok s -> Some (s, u)
                | Error _ -> None)
            | _ -> None)
          items
      in
      (* Lookups binary-search the classes: a row this code wrote is
         strictly ascending, anything else is not an answer. *)
      let rec ascending = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            Dcf.Strategy_space.compare a b < 0 && ascending rest
        | _ -> true
      in
      if
        List.length decoded = List.length items
        && decoded <> [] && ascending decoded
      then Some (Array.of_list decoded)
      else None
  | _ -> None

let create ?(telemetry = Telemetry.Registry.default) ?p_hn
    ?(backend = Analytic) ?store ?solver_max_iter (params : Dcf.Params.t) =
  validate_backend backend;
  (match solver_max_iter with
  | Some i when i < 1 ->
      invalid_arg "Oracle.create: solver_max_iter must be >= 1"
  | _ -> ());
  (match p_hn with
  | Some f when not (f > 0. && f <= 1.) ->
      invalid_arg "Oracle.create: p_hn must be in (0, 1]"
  | _ -> ());
  (* A v1 row anywhere in the store poisons the open: refuse it loudly
     rather than leave entries the v2 schema can never address.  The scan
     reads keys only.  Rows stay out of the memo, so a first-touch answer
     served from disk is attributed to the store tier, not mistaken for a
     memo hit. *)
  Option.iter
    (fun s ->
      Store.iter s (fun key ->
          if String.starts_with ~prefix:v1_prefix key then
            raise
              (Store.Corrupt
                 (Printf.sprintf
                    "legacy oracle row %S: the v1 key schema (bare CW \
                     profiles) predates multi-knob strategies and cannot be \
                     reinterpreted; delete the row or regenerate the store \
                     under oracle|v2"
                    key))))
    store;
  {
    params;
    p_hn;
    backend;
    telemetry;
    hits = Telemetry.Registry.counter telemetry "oracle.cache.hits";
    misses = Telemetry.Registry.counter telemetry "oracle.cache.misses";
    solves = Telemetry.Registry.counter telemetry "oracle.cache.solves";
    store_hits = Telemetry.Registry.counter telemetry "oracle.store.hits";
    store_misses = Telemetry.Registry.counter telemetry "oracle.store.misses";
    nonconverged =
      Telemetry.Registry.counter telemetry "oracle.solve.nonconverged";
    solver_max_iter;
    warm_iters =
      Telemetry.Registry.histogram telemetry "oracle.solve.iterations.warm";
    cold_iters =
      Telemetry.Registry.histogram telemetry "oracle.solve.iterations.cold";
    lock = Mutex.create ();
    uniform_memo = Uniform_memo.create 64;
    profile_memo = Profile_memo.create 64;
    store;
    store_prefix = lazy (store_prefix_of ~params ~p_hn ~backend);
  }

let analytic ?telemetry ?p_hn params = create ?telemetry ?p_hn params

let params t = t.params
let backend t = t.backend
let telemetry t = t.telemetry
let store t = t.store
let identity t = Lazy.force t.store_prefix

let backend_name = function
  | Analytic -> "analytic"
  | Sim_slotted _ -> "slotted"
  | Sim_spatial _ -> "spatial"

(* Memo access.  Lookups and inserts hold the lock (oracles are shared
   across the experiment runner's domains); backend solves run outside it,
   with a double-checked insert so a racing duplicate solve is harmless —
   both domains end up returning the same stored value. *)
let find_memo t find tbl key =
  Mutex.lock t.lock;
  let found = find tbl key in
  Mutex.unlock t.lock;
  (match found with
  | Some _ -> Telemetry.Metric.incr t.hits
  | None -> Telemetry.Metric.incr t.misses);
  found

let memo_insert t find add tbl key value =
  Mutex.lock t.lock;
  let value =
    match find tbl key with
    | Some existing -> existing
    | None ->
        add tbl key value;
        value
  in
  Mutex.unlock t.lock;
  value

let note_iterations t ~warm iters =
  let h = if warm then t.warm_iters else t.cold_iters in
  Telemetry.Metric.observe h (float_of_int iters)

(* A non-converged fixed point must never masquerade as an answer:
   raising here (before any [memo_insert] or [store_put] runs) keeps the
   memo, the persistent store, and every serve reply free of fabricated
   rows. *)
let refuse_nonconverged t what =
  Telemetry.Metric.incr t.nonconverged;
  raise
    (Non_converged
       (Printf.sprintf "solver did not converge on %s%s" what
          (match t.solver_max_iter with
          | Some i -> Printf.sprintf " (max_iter=%d)" i
          | None -> "")))

(* Store access around a memo miss.  Values round-trip bit-faithfully
   (Jsonx renders floats at full precision), so an answer served from
   disk is bit-identical to the solve that produced it.  Keys arrive
   lazy: building one forces the identity prefix (a full parameter
   render + fingerprint), which a store-less oracle must never pay, and
   a cold leaf builds its key once for the find and the put. *)
let store_find t key decode =
  match t.store with
  | None -> None
  | Some s -> (
      match Option.bind (Store.find s ~key:(Lazy.force key)) decode with
      | Some v ->
          Telemetry.Metric.incr t.store_hits;
          Some v
      | None ->
          Telemetry.Metric.incr t.store_misses;
          None)

let store_put t key json =
  Option.iter (fun s -> Store.put s ~key:(Lazy.force key) json) t.store

(* Per-replicate RNG streams are derived from the sim seed and the content
   key of the evaluation (à la the experiment runner), so a measurement
   depends only on what is being measured — never on memo state or
   evaluation order.  Content keys for degenerate evaluations keep the
   exact pre-strategy strings, so the derived seeds — and therefore every
   simulated degenerate answer — are bit-stable across the refactor. *)
let derived_seed ~seed key replicate =
  let rng = Prelude.Rng.of_key ~seed (key ^ "#" ^ string_of_int replicate) in
  Int64.to_int (Prelude.Rng.bits64 rng) land max_int

let replicate_estimates t ~key (strategies : Dcf.Strategy_space.t array) =
  let cws =
    Array.map (fun (s : Dcf.Strategy_space.t) -> s.Dcf.Strategy_space.cw)
      strategies
  in
  match t.backend with
  | Analytic -> invalid_arg "Oracle.replicate_estimates: analytic backend"
  | Sim_slotted { duration; replicates; seed } ->
      List.init replicates (fun r ->
          Telemetry.Metric.incr t.solves;
          Netsim.Slotted.estimates ~telemetry:t.telemetry ~strategies
            {
              params = t.params;
              cws;
              duration;
              seed = derived_seed ~seed key r;
            })
  | Sim_spatial { duration; replicates; seed } ->
      List.init replicates (fun r ->
          Telemetry.Metric.incr t.solves;
          Netsim.Spatial.clique_estimates ~telemetry:t.telemetry ~strategies
            ~params:t.params ~cws ~duration
            ~seed:(derived_seed ~seed key r) ())

(* {2 Uniform profiles: the (n, strategy) fast path} *)

let uniform_key ~n (s : Dcf.Strategy_space.t) =
  if Dcf.Strategy_space.is_degenerate s then
    Printf.sprintf "oracle.uniform|n=%d|w=%d" n s.cw
  else
    Printf.sprintf "oracle.uniform|n=%d|s=%s" n (Dcf.Strategy_space.to_key s)

let solve_uniform t ~n ~s =
  match t.backend with
  | Analytic when Dcf.Strategy_space.is_degenerate s ->
      (* Mirrors Dcf.Model.homogeneous operation for operation, so a
         memoized analytic oracle is bit-identical to direct model calls. *)
      let w = s.Dcf.Strategy_space.cw in
      let iters = ref 0 in
      let tau, p =
        Dcf.Solver.solve_homogeneous ~telemetry:t.telemetry ~iterations:iters
          t.params ~n ~w
      in
      note_iterations t ~warm:false !iters;
      let metrics = Dcf.Metrics.of_taus t.params (Array.make n tau) in
      Telemetry.Metric.incr t.solves;
      {
        tau;
        p;
        utility =
          Dcf.Utility.rate_of_node ?p_hn:t.p_hn t.params
            ~slot_time:metrics.slot_time ~tau ~p;
        throughput = metrics.throughput;
        slot_time = metrics.slot_time;
      }
  | Analytic ->
      let solved =
        Dcf.Model.solve_strategies ?p_hn:t.p_hn ?max_iter:t.solver_max_iter
          t.params (Array.make n s)
      in
      note_iterations t ~warm:false solved.Dcf.Model.iterations;
      Telemetry.Metric.incr t.solves;
      if not solved.Dcf.Model.converged then
        refuse_nonconverged t (uniform_key ~n s);
      {
        tau = solved.Dcf.Model.taus.(0);
        p = solved.Dcf.Model.ps.(0);
        utility = solved.Dcf.Model.utilities.(0);
        throughput =
          Array.fold_left ( +. ) 0. solved.Dcf.Model.goodputs;
        slot_time = solved.Dcf.Model.slot_time;
      }
  | Sim_slotted _ | Sim_spatial _ ->
      let reps =
        replicate_estimates t ~key:(uniform_key ~n s) (Array.make n s)
      in
      let tau = Prelude.Stats.create () in
      let p = Prelude.Stats.create () in
      let utility = Prelude.Stats.create () in
      let throughput = Prelude.Stats.create () in
      let slot_time = Prelude.Stats.create () in
      List.iter
        (fun per_node ->
          let total = ref 0. in
          Array.iter
            (fun (e : Netsim.Estimate.t) ->
              Prelude.Stats.add tau e.tau_hat;
              Prelude.Stats.add p e.p_hat;
              Prelude.Stats.add utility e.payoff_rate;
              Prelude.Stats.add slot_time e.slot_time;
              total := !total +. e.throughput)
            per_node;
          Prelude.Stats.add throughput !total)
        reps;
      {
        tau = Prelude.Stats.mean tau;
        p = Prelude.Stats.mean p;
        utility = Prelude.Stats.mean utility;
        throughput = Prelude.Stats.mean throughput;
        slot_time = Prelude.Stats.mean slot_time;
      }

let uniform_strategy_outcome t ~n (s : Dcf.Strategy_space.t) =
  if n < 1 then invalid_arg "Oracle.uniform: need n >= 1";
  if s.cw < 1 then invalid_arg "Oracle.uniform: window must be >= 1";
  (match Dcf.Strategy_space.validate s with
  | Ok () -> ()
  | Error e -> invalid_arg ("Oracle.uniform: " ^ e));
  match find_memo t Uniform_memo.find_opt t.uniform_memo (n, s) with
  | Some view ->
      Telemetry.Recorder.instant recorder nid_hit n s.cw;
      (view, Memo)
  | None -> (
      Telemetry.Recorder.instant recorder nid_miss n s.cw;
      let store_key = lazy (uniform_store_key t ~n ~s) in
      match store_find t store_key view_of_json with
      | Some view ->
          Telemetry.Recorder.instant recorder nid_store_hit n s.cw;
          ( memo_insert t Uniform_memo.find_opt Uniform_memo.add
              t.uniform_memo (n, s) view,
            Store )
      | None ->
          let solved =
            Telemetry.Recorder.with_span recorder nid_solve n s.cw (fun () ->
                solve_uniform t ~n ~s)
          in
          let view =
            memo_insert t Uniform_memo.find_opt Uniform_memo.add
              t.uniform_memo (n, s) solved
          in
          store_put t store_key (view_to_json view);
          (view, Cold))

let uniform_outcome t ~n ~w =
  uniform_strategy_outcome t ~n (Dcf.Strategy_space.of_cw w)

let uniform t ~n ~w = fst (uniform_outcome t ~n ~w)
let payoff_uniform t ~n ~w = (uniform t ~n ~w).utility
let welfare_uniform t ~n ~w = float_of_int n *. payoff_uniform t ~n ~w

let tau_p t ~n ~w =
  let view = uniform t ~n ~w in
  (view.tau, view.p)

(* {2 Heterogeneous profiles: the canonical sorted-multiset path} *)

let profile_key sorted = profile_repr "oracle.profile|" "" sorted

(* Distinct strategies of a sorted profile with the mean utility of each
   strategy class.  For the analytic backend the class members are already
   bit-identical (class-reduced solve), but their mean is not always the
   member, (0.1 + 0.1 + 0.1) / 3 <> 0.1, and the stored rows have always
   held the mean; for simulated backends the within-class averaging is
   what makes the oracle's permutation invariance exact. *)
let classes_of (sorted : Dcf.Strategy_space.t array) utilities =
  let acc = ref [] in
  let start = ref 0 in
  let n = Array.length sorted in
  for i = 1 to n do
    if i = n || not (Dcf.Strategy_space.equal sorted.(i) sorted.(!start))
    then begin
      let k = i - !start in
      let total = ref 0. in
      for j = !start to i - 1 do
        total := !total +. utilities.(j)
      done;
      acc := (sorted.(!start), !total /. float_of_int k) :: !acc;
      start := i
    end
  done;
  Array.of_list (List.rev !acc)

(* [classes_of] for a degenerate sorted profile, straight from the class
   form of its analytic solve: [sorted] runs through the solve's windows in
   ascending order, [counts.(j)] members each, and each row is the same
   mean of k equal members. *)
let class_rows (sorted : Dcf.Strategy_space.t array) ~counts values =
  let start = ref 0 in
  Array.mapi
    (fun j v ->
      let k = counts.(j) in
      let total = ref 0. in
      for _ = 1 to k do
        total := !total +. v
      done;
      let row = (sorted.(!start), !total /. float_of_int k) in
      start := !start + k;
      row)
    values

(* Solve a canonical sorted profile, returning the per-class utilities and
   the per-class (strategy, τ) pairs — the latter feed batch warm starts.
   [tau_hint] comes from a batch context. *)
let solve_profile ?tau_hint t (sorted : Dcf.Strategy_space.t array) =
  match t.backend with
  | Analytic when Profile.is_degenerate sorted ->
      let tau_hint =
        Option.map
          (fun hint w -> hint (Dcf.Strategy_space.of_cw w))
          tau_hint
      in
      let { Dcf.Model.classes; class_utilities; _ } =
        Dcf.Model.solve_profile_classes ?p_hn:t.p_hn ?tau_hint
          ?max_iter:t.solver_max_iter t.params (Profile.cws sorted)
      in
      note_iterations t ~warm:(tau_hint <> None) classes.iterations;
      Telemetry.Metric.incr t.solves;
      if not classes.converged then refuse_nonconverged t (profile_key sorted);
      ( class_rows sorted ~counts:classes.counts class_utilities,
        class_rows sorted ~counts:classes.counts classes.class_taus )
  | Analytic ->
      let solved =
        Dcf.Model.solve_strategies ?p_hn:t.p_hn ?tau_hint
          ?max_iter:t.solver_max_iter t.params sorted
      in
      note_iterations t ~warm:(tau_hint <> None) solved.Dcf.Model.iterations;
      Telemetry.Metric.incr t.solves;
      if not solved.Dcf.Model.converged then
        refuse_nonconverged t (profile_key sorted);
      ( classes_of sorted solved.Dcf.Model.utilities,
        classes_of sorted solved.Dcf.Model.taus )
  | Sim_slotted _ | Sim_spatial _ ->
      let reps = replicate_estimates t ~key:(profile_key sorted) sorted in
      let n = Array.length sorted in
      let means = Array.make n 0. in
      let count = float_of_int (List.length reps) in
      List.iter
        (fun per_node ->
          Array.iteri
            (fun i (e : Netsim.Estimate.t) ->
              means.(i) <- means.(i) +. (e.payoff_rate /. count))
            per_node)
        reps;
      (classes_of sorted means, [||])

(* Binary search: classes are strictly ascending (canonical solves build
   them so, and [classes_of_json] refuses rows that are not). *)
let class_utility (classes : classes) s =
  let rec find lo hi =
    if lo >= hi then
      invalid_arg "Oracle.payoffs: strategy missing from canonical solve"
    else begin
      let mid = (lo + hi) lsr 1 in
      let s', u = classes.(mid) in
      let c = Dcf.Strategy_space.compare s s' in
      if c = 0 then u else if c < 0 then find lo mid else find (mid + 1) hi
    end
  in
  find 0 (Array.length classes)

(* {2 Batch evaluation: the one warm start}

   A batch context carries the class τs of every profile it has solved,
   so consecutive cold solves in a sweep start from the previous point's
   fixed point instead of the cold-start proxy.  Contexts are cheap,
   single-threaded by design (one per serve batch envelope), and only
   influence *cold* solves — memo and store tiers are untouched.  A
   batch-warm answer agrees with the cold solve at tolerance level, not
   bit level. *)

type batch = {
  owner : t;
  batch_taus : (string, Dcf.Strategy_space.t * float) Hashtbl.t;
}

let batch t = { owner = t; batch_taus = Hashtbl.create 32 }

let batch_hint b (s : Dcf.Strategy_space.t) =
  match Hashtbl.find_opt b.batch_taus (Dcf.Strategy_space.to_key s) with
  | Some (_, tau) -> Some tau
  | None ->
      (* Nearest previously-solved class by CW, its τ rescaled by the
         no-collision ratio τ ≈ 2/(W+1). *)
      let best = ref None in
      Hashtbl.iter
        (fun _ ((s' : Dcf.Strategy_space.t), tau) ->
          let d = abs (s'.Dcf.Strategy_space.cw - s.Dcf.Strategy_space.cw) in
          match !best with
          | Some (d0, _, _) when d0 <= d -> ()
          | _ -> best := Some (d, s'.Dcf.Strategy_space.cw, tau))
        b.batch_taus;
      Option.map
        (fun (_, cw', tau) ->
          let scaled =
            tau *. float_of_int (cw' + 1) /. float_of_int (s.cw + 1)
          in
          if scaled > 0. && scaled < 1. then scaled else tau)
        !best

let batch_note b class_taus =
  Array.iter
    (fun ((s : Dcf.Strategy_space.t), tau) ->
      if tau > 0. && tau < 1. then
        Hashtbl.replace b.batch_taus (Dcf.Strategy_space.to_key s) (s, tau))
    class_taus

let payoffs_profile_outcome ?batch t (profile : Profile.t) =
  let n = Array.length profile in
  if n = 0 then invalid_arg "Oracle.payoffs: empty profile";
  (match batch with
  | Some b when b.owner != t ->
      invalid_arg "Oracle.payoffs: batch context belongs to another oracle"
  | _ -> ());
  Array.iter
    (fun (s : Dcf.Strategy_space.t) ->
      if s.cw < 1 then invalid_arg "Oracle.payoffs: window must be >= 1";
      match Dcf.Strategy_space.validate s with
      | Ok () -> ()
      | Error e -> invalid_arg ("Oracle.payoffs: " ^ e))
    profile;
  if Profile.is_uniform profile then
    let view, tier = uniform_strategy_outcome t ~n profile.(0) in
    (Array.make n view.utility, tier)
  else begin
    let sorted = Profile.canonical profile in
    let w0 = sorted.(0).Dcf.Strategy_space.cw in
    let classes, tier =
      match find_memo t Profile_memo.find_opt t.profile_memo sorted with
      | Some classes ->
          Telemetry.Recorder.instant recorder nid_hit n w0;
          (classes, Memo)
      | None -> (
          Telemetry.Recorder.instant recorder nid_miss n w0;
          let store_key = lazy (profile_store_key t sorted) in
          match store_find t store_key classes_of_json with
          | Some classes ->
              Telemetry.Recorder.instant recorder nid_store_hit n w0;
              ( memo_insert t Profile_memo.find_opt Profile_memo.add
                  t.profile_memo sorted classes,
                Store )
          | None ->
              let tau_hint =
                match batch with
                | Some b when Hashtbl.length b.batch_taus > 0 ->
                    Some (batch_hint b)
                | _ -> None
              in
              let solved, class_taus =
                Telemetry.Recorder.with_span recorder nid_solve n w0 (fun () ->
                    solve_profile ?tau_hint t sorted)
              in
              Option.iter (fun b -> batch_note b class_taus) batch;
              let classes =
                memo_insert t Profile_memo.find_opt Profile_memo.add
                  t.profile_memo sorted solved
              in
              store_put t store_key (classes_to_json classes);
              (classes, Cold))
    in
    (Array.map (fun s -> class_utility classes s) profile, tier)
  end

let payoffs_profile t profile = fst (payoffs_profile_outcome t profile)

let payoffs_outcome t cws = payoffs_profile_outcome t (Profile.of_cws cws)
let payoffs t cws = fst (payoffs_outcome t cws)
