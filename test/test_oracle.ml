(* Tests for the unified payoff oracle: memoization (hit/miss/solve
   accounting, bit-identical replay), agreement with the direct Dcf model
   calls it replaced, permutation invariance of both the analytic and the
   simulated backends, sim-backend determinism, and the search protocol's
   probe statistics on top of it. *)

let params = Dcf.Params.default

let bits = Int64.bits_of_float

let check_bits msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected actual

let fresh ?p_hn ?backend () =
  let registry = Telemetry.Registry.create ~label:"test-oracle" () in
  let oracle = Macgame.Oracle.create ~telemetry:registry ?p_hn ?backend params in
  let count name = Telemetry.Metric.count (Telemetry.Registry.counter registry name) in
  (oracle, count)

(* {1 Memoization} *)

let test_uniform_memo_bit_identity () =
  let oracle, count = fresh () in
  let cold = Macgame.Oracle.payoff_uniform oracle ~n:8 ~w:128 in
  Alcotest.(check int) "one miss" 1 (count "oracle.cache.misses");
  Alcotest.(check int) "one solve" 1 (count "oracle.cache.solves");
  let warm = Macgame.Oracle.payoff_uniform oracle ~n:8 ~w:128 in
  Alcotest.(check int) "one hit" 1 (count "oracle.cache.hits");
  Alcotest.(check int) "still one solve" 1 (count "oracle.cache.solves");
  check_bits "memo hit replays the stored float" cold warm

let test_profile_memo_bit_identity () =
  let oracle, count = fresh () in
  let profile = [| 64; 128; 64; 256 |] in
  let cold = Macgame.Oracle.payoffs oracle profile in
  let warm = Macgame.Oracle.payoffs oracle profile in
  Alcotest.(check int) "one miss" 1 (count "oracle.cache.misses");
  Alcotest.(check int) "one hit" 1 (count "oracle.cache.hits");
  Alcotest.(check int) "one solve" 1 (count "oracle.cache.solves");
  Array.iteri (fun i u -> check_bits "memoized payoff" cold.(i) u) warm

let test_uniform_profile_fast_path () =
  (* A uniform profile must route through the (n, w) memo and answer
     exactly what payoff_uniform answers. *)
  let oracle, count = fresh () in
  let u = Macgame.Oracle.payoff_uniform oracle ~n:5 ~w:96 in
  let via_profile = Macgame.Oracle.payoffs oracle (Array.make 5 96) in
  Alcotest.(check int) "profile reused the uniform memo" 1
    (count "oracle.cache.hits");
  Array.iter (fun v -> check_bits "same stored value" u v) via_profile

(* The uniform memo is keyed by (n, strategy): keys that differ in exactly
   one of n, cw, aifs, txop or rate each get their own entry, and a second
   pass replays every one of them from the memo. *)
let test_uniform_memo_keys_every_knob () =
  let oracle, count = fresh () in
  let base =
    { Dcf.Strategy_space.cw = 32; aifs = 0; txop_frames = 1; rate = 1.0 }
  in
  let keys =
    [
      (4, base);
      (5, base);
      (4, { base with cw = 33 });
      (4, { base with aifs = 1 });
      (4, { base with txop_frames = 2 });
      (4, { base with rate = 0.5 });
    ]
  in
  let pass expected_tier =
    List.map
      (fun (n, s) ->
        let payoffs, tier =
          Macgame.Oracle.payoffs_profile_outcome oracle (Array.make n s)
        in
        if tier <> expected_tier then
          Alcotest.failf "n=%d %s: tier %s, wanted %s" n
            (Dcf.Strategy_space.to_key s)
            (Macgame.Oracle.tier_name tier)
            (Macgame.Oracle.tier_name expected_tier);
        payoffs.(0))
      keys
  in
  let k = List.length keys in
  let cold = pass Macgame.Oracle.Cold in
  Alcotest.(check int) "a miss per key" k (count "oracle.cache.misses");
  Alcotest.(check int) "a solve per key" k (count "oracle.cache.solves");
  Alcotest.(check int) "no hit yet" 0 (count "oracle.cache.hits");
  Alcotest.(check int) "six distinct answers" k
    (List.length (List.sort_uniq compare (List.map bits cold)));
  let warm = pass Macgame.Oracle.Memo in
  Alcotest.(check int) "a hit per key" k (count "oracle.cache.hits");
  Alcotest.(check int) "no new miss" k (count "oracle.cache.misses");
  Alcotest.(check int) "no new solve" k (count "oracle.cache.solves");
  List.iter2 (check_bits "memo hit replays the stored float") cold warm

(* Lemma 4's shape at scale: nine conformers at W = 16 and one deviant at
   W_dev = 17 … 3016.  The polymorphic hash of a profile stops after ten
   meaningful words, so every one of these once landed in one memo
   bucket and a hit walked all 3 000 entries. *)
let one_deviant_profiles () =
  Array.init 3000 (fun k ->
      Macgame.Profile.of_cws (Array.append (Array.make 9 16) [| 17 + k |]))

module Profile_table = Hashtbl.Make (struct
  type t = Macgame.Profile.t

  let equal = Macgame.Profile.equal
  let hash = Macgame.Profile.hash
end)

let test_profile_memo_spreads_deviants () =
  let canon = Array.map Macgame.Profile.canonical (one_deviant_profiles ()) in
  let hashes = Hashtbl.create 4096 in
  Array.iter
    (fun p -> Hashtbl.replace hashes (Macgame.Profile.hash p) ())
    canon;
  Alcotest.(check int) "3000 distinct hashes" 3000 (Hashtbl.length hashes);
  let table = Profile_table.create 64 in
  Array.iter (fun p -> Profile_table.replace table p ()) canon;
  let stats = Profile_table.stats table in
  Alcotest.(check bool)
    (Printf.sprintf "buckets stay short (longest %d)" stats.max_bucket_length)
    true
    (stats.max_bucket_length <= 16);
  (* Permutations share a canonical form, hence a hash. *)
  let canonical_hash cws =
    Macgame.Profile.hash
      (Macgame.Profile.canonical (Macgame.Profile.of_cws cws))
  in
  Alcotest.(check int) "permutations hash alike"
    (canonical_hash [| 16; 17; 16 |])
    (canonical_hash [| 17; 16; 16 |])

let test_profile_memo_replays_deviants () =
  let oracle, count = fresh () in
  let profiles = one_deviant_profiles () in
  let serve () =
    Array.map
      (fun p -> Macgame.Oracle.payoffs_profile_outcome oracle p)
      profiles
  in
  let cold = serve () in
  let warm = serve () in
  Array.iteri
    (fun k (payoffs, tier) ->
      let cold_payoffs, cold_tier = cold.(k) in
      if cold_tier <> Macgame.Oracle.Cold || tier <> Macgame.Oracle.Memo then
        Alcotest.failf "profile %d: tiers %s then %s" k
          (Macgame.Oracle.tier_name cold_tier)
          (Macgame.Oracle.tier_name tier);
      Array.iteri
        (fun i u -> check_bits "memo replay" cold_payoffs.(i) u)
        payoffs)
    warm;
  Alcotest.(check int) "hits" 3000 (count "oracle.cache.hits");
  Alcotest.(check int) "misses" 3000 (count "oracle.cache.misses");
  Alcotest.(check int) "solves" 3000 (count "oracle.cache.solves")

(* Store keys embed the parameter fingerprint and the strategy rendering;
   these literals were produced before the key builders lost Printf, so
   stores written by earlier builds keep hitting. *)
let test_store_keys_pinned () =
  let dir = Filename.temp_file "oracle_keys" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let prefix = "oracle|v2|params=a1eb2e840c67564d|p_hn=0x1p+0|analytic|" in
  let degenerate = [| 64; 16; 64; 32 |] in
  Store.with_store dir (fun store ->
      let oracle = Macgame.Oracle.create ~store params in
      ignore (Macgame.Oracle.payoffs oracle degenerate);
      ignore
        (Macgame.Oracle.payoffs_profile oracle
           [|
             Dcf.Strategy_space.of_cw 64;
             {
               Dcf.Strategy_space.cw = 32;
               aifs = 2;
               txop_frames = 3;
               rate = 0.5;
             };
             Dcf.Strategy_space.of_cw 64;
           |]);
      ignore (Macgame.Oracle.uniform oracle ~n:5 ~w:64);
      let keys = ref [] in
      Store.iter store (fun key -> keys := key :: !keys);
      Alcotest.(check (list string))
        "store keys"
        (List.map (( ^ ) prefix)
           [
             "profile|16;32;64;64";
             "profile|w32.a2.t3.r0x1p-1;64;64";
             "uniform|n=5|w=64";
           ])
        (List.sort compare !keys);
      (* A row whose classes are out of canonical order is not an answer:
         the lookup treats it as a miss and solves cold. *)
      Store.put store ~key:(prefix ^ "profile|16;32;64;64")
        (Telemetry.Jsonx.parse
           "[{\"s\":64,\"u\":1.0},{\"s\":32,\"u\":2.0},{\"s\":16,\"u\":3.0}]"));
  Store.with_store dir (fun store ->
      let oracle = Macgame.Oracle.create ~store params in
      let payoffs, tier = Macgame.Oracle.payoffs_outcome oracle degenerate in
      Alcotest.(check string) "unsorted row refused" "cold"
        (Macgame.Oracle.tier_name tier);
      check_bits "solved, not read" 11.403114608624875 payoffs.(0))

(* {1 Agreement with the direct model calls the oracle replaced} *)

let test_uniform_matches_model_homogeneous () =
  let oracle, _ = fresh () in
  List.iter
    (fun (n, w) ->
      let v = Dcf.Model.homogeneous params ~n ~w in
      let view = Macgame.Oracle.uniform oracle ~n ~w in
      check_bits "utility" v.Dcf.Model.utility view.Macgame.Oracle.utility;
      check_bits "tau" v.Dcf.Model.tau view.Macgame.Oracle.tau;
      check_bits "p" v.Dcf.Model.p view.Macgame.Oracle.p;
      check_bits "slot_time" v.Dcf.Model.slot_time
        view.Macgame.Oracle.slot_time)
    [ (1, 32); (5, 128); (20, 339); (50, 64) ]

let test_p_hn_matches_model () =
  let oracle, _ = fresh ~p_hn:0.7 () in
  let v = Dcf.Model.homogeneous ~p_hn:0.7 params ~n:6 ~w:64 in
  check_bits "degraded utility" v.Dcf.Model.utility
    (Macgame.Oracle.payoff_uniform oracle ~n:6 ~w:64)

let test_payoffs_match_per_node_solve () =
  (* The class-reduced path agrees with a solve that gives every node a
     class of its own to solver tolerance (they iterate
     different-dimensional fixed points). *)
  let oracle, _ = fresh () in
  let profile = [| 32; 64; 128; 64; 32 |] in
  let direct =
    let s =
      Dcf.Solver.solve_classes params
        (Array.to_list (Array.map (fun w -> (w, 1)) profile))
    in
    Dcf.Utility.rates params
      ~taus:(Array.of_list (List.map fst s.class_pairs))
      ~ps:(Array.of_list (List.map snd s.class_pairs))
  in
  let via_oracle = Macgame.Oracle.payoffs oracle profile in
  Array.iteri
    (fun i u ->
      if not (Prelude.Util.approx_equal ~eps:1e-6 direct.(i) u) then
        Alcotest.failf "node %d: model %.12g vs oracle %.12g" i direct.(i) u)
    via_oracle

(* {1 Permutation invariance} *)

let profile_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    array_size (return n) (map (fun w -> 1 lsl w) (int_range 4 9)))

let permutation_pair =
  (* A profile together with a permuted copy of it (reversal composed with
     a rotation exercises non-trivial permutations without an index list). *)
  QCheck.make
    QCheck.Gen.(
      let* profile = profile_gen in
      let* rot = int_range 0 (Array.length profile - 1) in
      let n = Array.length profile in
      let permuted = Array.init n (fun i -> profile.((n - 1 - i + rot) mod n)) in
      return (profile, permuted))
    ~print:(fun (a, b) ->
      Printf.sprintf "%s / %s"
        (String.concat "," (Array.to_list (Array.map string_of_int a)))
        (String.concat "," (Array.to_list (Array.map string_of_int b))))

let payoff_of profile payoffs =
  (* window -> payoff pairs, sorted: the multiset view of the result. *)
  List.sort compare
    (Array.to_list (Array.mapi (fun i w -> (w, payoffs.(i))) profile))

let test_dcf_solve_profile_permutation_invariant =
  (* The class solve gives both orderings bit-identical (τ, p), but the
     metrics fold over nodes in array order, so the utilities agree only
     to ulp-level float-summation noise — the oracle's sort-then-memoize
     is what upgrades this to exact invariance. *)
  QCheck.Test.make ~name:"Dcf.Model.solve_profile is permutation-invariant"
    ~count:50 permutation_pair (fun (profile, permuted) ->
      let a = payoff_of profile (Dcf.Model.solve_profile params profile).Dcf.Model.utilities in
      let b = payoff_of permuted (Dcf.Model.solve_profile params permuted).Dcf.Model.utilities in
      List.for_all2
        (fun (wa, ua) (wb, ub) ->
          wa = wb && Prelude.Util.approx_equal ~eps:1e-9 ua ub)
        a b)

let test_oracle_permutation_invariant =
  QCheck.Test.make ~name:"oracle payoffs are permutation-invariant (exact)"
    ~count:50 permutation_pair (fun (profile, permuted) ->
      let oracle, _ = fresh () in
      let a = payoff_of profile (Macgame.Oracle.payoffs oracle profile) in
      let b = payoff_of permuted (Macgame.Oracle.payoffs oracle permuted) in
      List.for_all2
        (fun (wa, ua) (wb, ub) -> wa = wb && bits ua = bits ub)
        a b)

(* {1 Simulated backends} *)

let sim_cfg = { Macgame.Oracle.duration = 0.2; replicates = 2; seed = 11 }

let test_sim_backend_deterministic () =
  List.iter
    (fun backend ->
      let one () =
        let oracle, _ = fresh ~backend () in
        Macgame.Oracle.payoffs oracle [| 32; 64; 32 |]
      in
      let a = one () and b = one () in
      Array.iteri (fun i u -> check_bits "replayable measurement" a.(i) u) b)
    [ Macgame.Oracle.Sim_slotted sim_cfg; Macgame.Oracle.Sim_spatial sim_cfg ]

let test_sim_backend_permutation_invariant () =
  (* Within-class averaging makes even noisy measurements exactly
     symmetric across permutations. *)
  let oracle, count = fresh ~backend:(Macgame.Oracle.Sim_slotted sim_cfg) () in
  let a = payoff_of [| 32; 64; 32 |] (Macgame.Oracle.payoffs oracle [| 32; 64; 32 |]) in
  let b = payoff_of [| 64; 32; 32 |] (Macgame.Oracle.payoffs oracle [| 64; 32; 32 |]) in
  List.iter2
    (fun (wa, ua) (wb, ub) ->
      Alcotest.(check int) "window class" wa wb;
      check_bits "class payoff" ua ub)
    a b;
  (* Both permutations hit the same canonical entry: one miss, one hit,
     and one solve per replicate. *)
  Alcotest.(check int) "one miss" 1 (count "oracle.cache.misses");
  Alcotest.(check int) "one hit" 1 (count "oracle.cache.hits");
  Alcotest.(check int) "replicates counted as solves" sim_cfg.replicates
    (count "oracle.cache.solves")

let test_sim_spatial_memo_bit_identity () =
  (* The Sim_spatial backend now runs the event-driven spatial core; the
     memo contract is unchanged: a warm lookup replays the stored floats
     bit-for-bit without re-simulating. *)
  let oracle, count = fresh ~backend:(Macgame.Oracle.Sim_spatial sim_cfg) () in
  let cold = Macgame.Oracle.payoff_uniform oracle ~n:4 ~w:64 in
  Alcotest.(check int) "one miss" 1 (count "oracle.cache.misses");
  Alcotest.(check int) "replicates counted as solves" sim_cfg.replicates
    (count "oracle.cache.solves");
  let warm = Macgame.Oracle.payoff_uniform oracle ~n:4 ~w:64 in
  Alcotest.(check int) "one hit" 1 (count "oracle.cache.hits");
  Alcotest.(check int) "no extra solves" sim_cfg.replicates
    (count "oracle.cache.solves");
  check_bits "memo hit replays the stored measurement" cold warm

let test_sim_backend_sane_payoffs () =
  let oracle, _ = fresh ~backend:(Macgame.Oracle.Sim_slotted sim_cfg) () in
  let u_sim = Macgame.Oracle.payoff_uniform oracle ~n:5 ~w:128 in
  let analytic, _ = fresh () in
  let u_model = Macgame.Oracle.payoff_uniform analytic ~n:5 ~w:128 in
  Alcotest.(check bool) "within 25% of the model" true
    (Float.abs (u_sim -. u_model) < 0.25 *. u_model)

(* {1 Validation} *)

let test_validation () =
  Alcotest.check_raises "empty profile"
    (Invalid_argument "Oracle.payoffs: empty profile") (fun () ->
      ignore (Macgame.Oracle.payoffs (fst (fresh ())) [||]));
  Alcotest.check_raises "window < 1"
    (Invalid_argument "Oracle.payoffs: window must be >= 1") (fun () ->
      ignore (Macgame.Oracle.payoffs (fst (fresh ())) [| 16; 0 |]));
  Alcotest.check_raises "bad replicates"
    (Invalid_argument "Oracle.create: need replicates >= 1") (fun () ->
      ignore
        (Macgame.Oracle.create
           ~backend:
             (Macgame.Oracle.Sim_slotted
                { duration = 1.; replicates = 0; seed = 0 })
           params));
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Oracle.create: sim duration must be positive") (fun () ->
      ignore
        (Macgame.Oracle.create
           ~backend:
             (Macgame.Oracle.Sim_spatial
                { duration = 0.; replicates = 1; seed = 0 })
           params));
  (* A NaN duration used to yield NaN payoffs, an infinite one to hang. *)
  List.iter
    (fun (duration, msg) ->
      Alcotest.check_raises
        (Printf.sprintf "bad duration %h" duration)
        (Invalid_argument ("Oracle.create: sim duration must be " ^ msg))
        (fun () ->
          ignore
            (Macgame.Oracle.create
               ~backend:
                 (Macgame.Oracle.Sim_slotted
                    { duration; replicates = 1; seed = 0 })
               params)))
    [ (nan, "positive"); (infinity, "finite"); (-1., "positive") ];
  Alcotest.check_raises "bad p_hn"
    (Invalid_argument "Oracle.create: p_hn must be in (0, 1]") (fun () ->
      ignore (Macgame.Oracle.create ~p_hn:0. params));
  Alcotest.check_raises "nan p_hn"
    (Invalid_argument "Oracle.create: p_hn must be in (0, 1]") (fun () ->
      ignore (Macgame.Oracle.create ~p_hn:nan params))

(* {1 Non-convergence refusal (PR 9)} *)

(* Heterogeneous, so the query routes through the class solver — whose
   iteration budget [solver_max_iter] can be strangled — rather than the
   uniform Brent fast path. *)
let hostile = [| 32; 64; 128; 256; 512 |]

let contains_substring hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let expect_nonconverged f =
  match f () with
  | _ -> Alcotest.fail "expected Oracle.Non_converged"
  | exception Macgame.Oracle.Non_converged reason -> reason

let test_nonconverged_refused_and_not_memoized () =
  let registry = Telemetry.Registry.create ~label:"test-oracle-nc" () in
  let oracle =
    Macgame.Oracle.create ~telemetry:registry ~solver_max_iter:1 params
  in
  let count name =
    Telemetry.Metric.count (Telemetry.Registry.counter registry name)
  in
  let reason =
    expect_nonconverged (fun () -> Macgame.Oracle.payoffs oracle hostile)
  in
  Alcotest.(check bool) "reason names the budget" true
    (contains_substring reason "max_iter");
  (* A second identical query must solve (and refuse) again: the failed
     answer was never memoized. *)
  ignore (expect_nonconverged (fun () -> Macgame.Oracle.payoffs oracle hostile));
  Alcotest.(check int) "counted both refusals" 2
    (count "oracle.solve.nonconverged");
  Alcotest.(check int) "nothing was memoized" 0 (count "oracle.cache.hits")

let test_nonconverged_never_persisted () =
  let dir = Filename.temp_file "oracle_nc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Store.with_store dir (fun store ->
      let oracle = Macgame.Oracle.create ~store ~solver_max_iter:1 params in
      ignore
        (expect_nonconverged (fun () -> Macgame.Oracle.payoffs oracle hostile));
      Alcotest.(check int) "no row written" 0 (Store.entries store))

(* Every ordered pair of distinct windows in [16, 256], not a sample: the
   solver, the model and the oracle must agree on every pair, and every
   pair more than 1/32 apart must be refused.  Only nearly uniform pairs
   converge in one Newton step; on this grid those are at most 4 apart
   (1.7%, e.g. 235 and 239), so the 1/32 bound has almost 2x margin. *)
let test_nonconverged_surfaces_at_every_layer () =
  for w_a = 16 to 256 do
    for w_b = 16 to 256 do
      if w_a <> w_b then begin
        let profile = Array.concat [ Array.make 3 w_a; Array.make 3 w_b ] in
        (* Solver layer. *)
        let classes = [ (min w_a w_b, 3); (max w_a w_b, 3) ] in
        let solver_says =
          not (Dcf.Solver.solve_classes ~max_iter:1 params classes).converged
        in
        (* Model layer. *)
        let model_says =
          not (Dcf.Model.solve_profile ~max_iter:1 params profile).converged
        in
        (* Oracle layer: the same budget must turn into a refusal. *)
        let oracle = Macgame.Oracle.create ~solver_max_iter:1 params in
        let oracle_says =
          match Macgame.Oracle.payoffs oracle profile with
          | _ -> false
          | exception Macgame.Oracle.Non_converged _ -> true
        in
        if not (solver_says = model_says && model_says = oracle_says) then
          Alcotest.failf
            "(%d, %d): non-convergence from solver %b, model %b, oracle %b"
            w_a w_b solver_says model_says oracle_says;
        if 32 * abs (w_a - w_b) > min w_a w_b && not solver_says then
          Alcotest.failf "(%d, %d): converged in one step" w_a w_b
      end
    done
  done

let test_batch_outcome_isolates_failures () =
  let oracle = Macgame.Oracle.create ~solver_max_iter:1 params in
  let batch = Macgame.Oracle.batch oracle in
  let results =
    Array.map
      (fun profile ->
        match Macgame.Oracle.payoffs_profile_outcome ~batch oracle profile with
        | result -> Ok result
        | exception Macgame.Oracle.Non_converged reason -> Error reason)
      [|
        Macgame.Profile.of_cws (Array.make 4 64) (* uniform: Brent path *);
        Macgame.Profile.of_cws hostile (* heterogeneous: refused *);
        Macgame.Profile.of_cws (Array.make 4 128) (* unaffected by the error *);
      |]
  in
  (match results.(0) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "uniform profile refused: %s" e);
  (match results.(1) with
  | Ok _ -> Alcotest.fail "hostile profile must be refused"
  | Error reason ->
      Alcotest.(check bool) "reason names the budget" true
        (contains_substring reason "max_iter"));
  match results.(2) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "later profile poisoned by the failure: %s" e

let test_batch_agrees_with_unbatched () =
  let oracle, _ = fresh () in
  let profiles =
    Array.init 8 (fun i ->
        Macgame.Profile.of_cws [| 32 + (16 * i); 128; 128; 128 |])
  in
  let batch = Macgame.Oracle.batch oracle in
  let batched =
    Array.map
      (fun profile ->
        fst (Macgame.Oracle.payoffs_profile_outcome ~batch oracle profile))
      profiles
  in
  let reference = Macgame.Oracle.analytic params in
  Array.iteri
    (fun i payoffs ->
      let cold = Macgame.Oracle.payoffs_profile reference profiles.(i) in
      Array.iteri
        (fun j u ->
          Alcotest.(check bool)
            (Printf.sprintf "profile %d node %d tolerance-level" i j)
            true
            (Float.abs (u -. cold.(j)) <= 1e-9 *. Float.max 1. (Float.abs cold.(j))))
        payoffs)
    batched

(* {1 Search probe statistics on top of the oracle} *)

let test_search_stddev_zero_on_exact_oracle () =
  let oracle, _ = fresh () in
  let trace =
    Macgame.Search.run ~w0:16 ~probes:5 ~cw_max:512
      (Macgame.Search.of_oracle oracle ~n:4)
  in
  List.iter
    (fun (m : Macgame.Search.measurement) ->
      check_bits "deterministic probes have zero spread" 0. m.stddev)
    trace.measurements

let test_search_stddev_positive_under_noise () =
  let oracle, _ = fresh () in
  let noisy =
    Macgame.Search.noisy_oracle (Prelude.Rng.create 5) ~rel_stddev:0.05
      (Macgame.Search.of_oracle oracle ~n:4)
  in
  let trace = Macgame.Search.run ~w0:16 ~probes:8 ~cw_max:512 noisy in
  Alcotest.(check bool) "noise shows up in the probe stddev" true
    (List.exists
       (fun (m : Macgame.Search.measurement) -> m.stddev > 0.)
       trace.measurements)

let () =
  Alcotest.run "oracle"
    [
      ( "memo",
        [
          Alcotest.test_case "uniform hit is bit-identical" `Quick
            test_uniform_memo_bit_identity;
          Alcotest.test_case "profile hit is bit-identical" `Quick
            test_profile_memo_bit_identity;
          Alcotest.test_case "uniform profile takes the (n, w) path" `Quick
            test_uniform_profile_fast_path;
          Alcotest.test_case "one-deviant profiles spread over the memo"
            `Quick test_profile_memo_spreads_deviants;
          Alcotest.test_case "3000 one-deviant profiles replay from the memo"
            `Quick test_profile_memo_replays_deviants;
          Alcotest.test_case "store keys keep their bytes" `Quick
            test_store_keys_pinned;
          Alcotest.test_case "uniform memo keys every knob" `Quick
            test_uniform_memo_keys_every_knob;
        ] );
      ( "model agreement",
        [
          Alcotest.test_case "uniform view = Dcf.Model.homogeneous" `Quick
            test_uniform_matches_model_homogeneous;
          Alcotest.test_case "p_hn threads through" `Quick test_p_hn_matches_model;
          Alcotest.test_case "payoffs vs per-node solve" `Quick
            test_payoffs_match_per_node_solve;
        ] );
      ( "permutation invariance",
        [
          QCheck_alcotest.to_alcotest test_dcf_solve_profile_permutation_invariant;
          QCheck_alcotest.to_alcotest test_oracle_permutation_invariant;
        ] );
      ( "sim backends",
        [
          Alcotest.test_case "deterministic under replay" `Quick
            test_sim_backend_deterministic;
          Alcotest.test_case "exactly symmetric across permutations" `Quick
            test_sim_backend_permutation_invariant;
          Alcotest.test_case "spatial memo replays bit-identically" `Quick
            test_sim_spatial_memo_bit_identity;
          Alcotest.test_case "agrees loosely with the model" `Quick
            test_sim_backend_sane_payoffs;
        ] );
      ("validation", [ Alcotest.test_case "arguments" `Quick test_validation ]);
      ( "non-convergence",
        [
          Alcotest.test_case "refused and not memoized" `Quick
            test_nonconverged_refused_and_not_memoized;
          Alcotest.test_case "never persisted" `Quick
            test_nonconverged_never_persisted;
          Alcotest.test_case
            "max_iter=1 hostile profiles surface non-convergence at every layer"
            `Quick test_nonconverged_surfaces_at_every_layer;
        ] );
      ( "batch",
        [
          Alcotest.test_case "errors isolated per profile" `Quick
            test_batch_outcome_isolates_failures;
          Alcotest.test_case "agrees with unbatched" `Quick
            test_batch_agrees_with_unbatched;
        ] );
      ( "search",
        [
          Alcotest.test_case "stddev 0 on an exact oracle" `Quick
            test_search_stddev_zero_on_exact_oracle;
          Alcotest.test_case "stddev > 0 under noise" `Quick
            test_search_stddev_positive_under_noise;
        ] );
    ]
