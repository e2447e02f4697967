(* Tests for the experiment engine: task keys and derived RNG streams,
   the determinism contract (-j k results bit-identical to serial), cache
   hits skipping recomputation, and an interrupted sweep resuming from
   the cache entries its finished tasks wrote. *)

module R = Runner
module J = Telemetry.Jsonx

let temp_dir () =
  let path = Filename.temp_file "runner_test" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let config ?(workers = 1) ?cache_dir ?(seed = 0) () =
  { R.workers; cache_dir; seed }

(* A float-valued task whose result is a deterministic function of its key
   and the sweep seed (via the task RNG) plus a visible computation count,
   so tests can assert what actually ran. *)
let counted_task counter ~tag i =
  R.Task.make
    ~key:
      (R.Task.key_of ~family:"test.counted"
         [ ("tag", J.String tag); ("i", J.Int i) ])
    ~encode:(fun v -> J.Float v)
    ~decode:J.to_float_opt
    (fun rng ->
      Atomic.incr counter;
      Prelude.Rng.float rng 1.0 +. float_of_int i)

let counted_tasks counter ~tag n =
  Array.init n (counted_task counter ~tag)

(* {1 Task keys and RNG derivation} *)

let test_key_field_order_insensitive () =
  let k1 = R.Task.key_of ~family:"f" [ ("a", J.Int 1); ("b", J.Int 2) ] in
  let k2 = R.Task.key_of ~family:"f" [ ("b", J.Int 2); ("a", J.Int 1) ] in
  Alcotest.(check string) "sorted canonical form" k1 k2;
  let k3 = R.Task.key_of ~family:"g" [ ("a", J.Int 1); ("b", J.Int 2) ] in
  Alcotest.(check bool) "family distinguishes" false (String.equal k1 k3)

let test_rng_of_key () =
  let draws key seed =
    let rng = Prelude.Rng.of_key ~seed key in
    List.init 4 (fun _ -> Prelude.Rng.float rng 1.0)
  in
  Alcotest.(check (list (float 0.))) "same (seed, key), same stream"
    (draws "k" 7) (draws "k" 7);
  Alcotest.(check bool) "different key, different stream" false
    (draws "k" 7 = draws "l" 7);
  Alcotest.(check bool) "different seed, different stream" false
    (draws "k" 7 = draws "k" 8)

(* {1 Determinism: -j k bit-identical to serial} *)

(* A multihop-style sweep: spatial packet simulations over a window grid
   on a line topology — the shape bench/exp_multihop.ml submits. *)
let spatial_tasks () =
  let n = 8 in
  let adjacency =
    Array.init n (fun i ->
        List.filter (fun j -> j >= 0 && j < n && j <> i) [ i - 1; i + 1 ])
  in
  Array.of_list
    (List.map
       (fun w ->
         R.Task.make
           ~key:(R.Task.key_of ~family:"test.spatial" [ ("w", J.Int w) ])
           ~encode:R.Task.float_array ~decode:R.Task.to_float_array
           (fun _rng ->
             let r =
               Netsim.Spatial.run
                 {
                   params = Dcf.Params.rts_cts;
                   adjacency;
                   cws = Array.make n w;
                   duration = 0.5;
                   seed = 11 + w;
                 }
             in
             Array.map
               (fun (s : Netsim.Spatial.node_stats) -> s.payoff_rate)
               r.per_node))
       [ 8; 16; 32; 64 ])

let test_parallel_bit_identical_spatial () =
  let serial = R.map ~config:(config ~workers:1 ()) ~name:"t" (spatial_tasks ()) in
  List.iter
    (fun workers ->
      let parallel =
        R.map ~config:(config ~workers ()) ~name:"t" (spatial_tasks ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "-j %d bit-identical to serial" workers)
        true
        (serial = parallel))
    [ 2; 4; 8 ]

let test_parallel_bit_identical_qcheck =
  QCheck.Test.make ~count:20 ~name:"random sweeps: -j k = serial"
    QCheck.(pair (int_bound 30) (int_bound 7))
    (fun (n, j) ->
      let tasks tag = counted_tasks (Atomic.make 0) ~tag (n + 1) in
      let serial = R.map ~config:(config ~workers:1 ()) ~name:"q" (tasks "q") in
      let parallel =
        R.map ~config:(config ~workers:(j + 2) ()) ~name:"q" (tasks "q")
      in
      serial = parallel)

let test_seed_changes_results () =
  let tasks seed =
    R.map
      ~config:(config ~workers:1 ~seed ())
      ~name:"s"
      (counted_tasks (Atomic.make 0) ~tag:"seed" 4)
  in
  Alcotest.(check bool) "sweep seed feeds task RNGs" false (tasks 0 = tasks 1)

(* {1 Cache} *)

let test_cache_hits_skip_recomputation () =
  let dir = temp_dir () in
  let counter = Atomic.make 0 in
  let cfg = config ~workers:2 ~cache_dir:dir () in
  let cold = R.map ~config:cfg ~name:"c" (counted_tasks counter ~tag:"c" 6) in
  Alcotest.(check int) "cold run computes everything" 6 (Atomic.get counter);
  let registry = Telemetry.Registry.create ~label:"t" () in
  let warm =
    R.map ~registry ~config:cfg ~name:"c" (counted_tasks counter ~tag:"c" 6)
  in
  Alcotest.(check int) "warm run computes nothing" 6 (Atomic.get counter);
  Alcotest.(check bool) "warm results byte-identical" true (cold = warm);
  Alcotest.(check int) "hits counted" 6
    (Telemetry.Metric.count (Telemetry.Registry.counter registry "runner.cache.hits"))

let test_cache_shared_across_sweeps () =
  let dir = temp_dir () in
  let counter = Atomic.make 0 in
  let cfg = config ~cache_dir:dir () in
  ignore (R.map ~config:cfg ~name:"sweep_a" (counted_tasks counter ~tag:"x" 4));
  (* A different sweep name, same content keys: the content-addressed
     store serves them without recomputation. *)
  ignore (R.map ~config:cfg ~name:"sweep_b" (counted_tasks counter ~tag:"x" 4));
  Alcotest.(check int) "content addressing crosses sweeps" 4 (Atomic.get counter)

let test_corrupt_cache_entry_recomputes () =
  let dir = temp_dir () in
  let counter = Atomic.make 0 in
  let cfg = config ~cache_dir:dir () in
  let cold = R.map ~config:cfg ~name:"k" (counted_tasks counter ~tag:"k" 2) in
  (* Truncate one entry; the engine must fall back to recomputation. *)
  let victim = Sys.readdir dir |> Array.to_list |> List.sort compare |> List.hd in
  let oc = open_out (Filename.concat dir victim) in
  output_string oc "{ not json";
  close_out oc;
  let again = R.map ~config:cfg ~name:"k" (counted_tasks counter ~tag:"k" 2) in
  Alcotest.(check int) "exactly the corrupt entry recomputed" 3
    (Atomic.get counter);
  Alcotest.(check bool) "values unchanged" true (cold = again)

(* {1 Cache gc} *)

let age_file path days =
  let t = Unix.gettimeofday () -. (days *. 86_400.) in
  Unix.utimes path t t

let test_gc_evicts_by_age () =
  let dir = temp_dir () in
  let cache = R.Cache.open_dir dir in
  List.iter
    (fun k -> R.Cache.store cache ~key:k (J.Int 1))
    [ "young"; "old_a"; "old_b" ];
  let name_of key =
    Sys.readdir dir |> Array.to_list
    |> List.find (fun f ->
           let text =
             In_channel.with_open_bin (Filename.concat dir f)
               In_channel.input_all
           in
           Option.bind (J.member "key" (J.parse text)) (function
             | J.String s -> Some (s = key)
             | _ -> None)
           = Some true)
  in
  age_file (Filename.concat dir (name_of "old_a")) 10.;
  age_file (Filename.concat dir (name_of "old_b")) 10.;
  let registry = Telemetry.Registry.create ~label:"gc" () in
  let stats = R.Cache.gc ~telemetry:registry ~max_age_days:7. cache in
  Alcotest.(check int) "scanned all" 3 stats.scanned;
  Alcotest.(check int) "evicted the stale pair" 2 stats.evicted;
  Alcotest.(check int) "none corrupt" 0 stats.corrupt;
  Alcotest.(check int) "counter matches" 2
    (Telemetry.Metric.count
       (Telemetry.Registry.counter registry "runner.cache.evicted"));
  Alcotest.(check bool) "young entry survives" true
    (R.Cache.find cache ~key:"young" <> None);
  Alcotest.(check bool) "old entries gone" true
    (R.Cache.find cache ~key:"old_a" = None
    && R.Cache.find cache ~key:"old_b" = None)

let test_gc_size_budget_oldest_first () =
  let dir = temp_dir () in
  let cache = R.Cache.open_dir dir in
  (* Three entries with strictly increasing mtimes; a budget that only
     fits one must keep the newest. *)
  List.iteri
    (fun i k ->
      R.Cache.store cache ~key:k (J.Int i);
      let file =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.find (fun f ->
               let text =
                 In_channel.with_open_bin (Filename.concat dir f)
                   In_channel.input_all
               in
               J.member "key" (J.parse text) = Some (J.String k))
      in
      age_file (Filename.concat dir file) (float_of_int (2 - i)))
    [ "first"; "second"; "third" ];
  let budget =
    Sys.readdir dir |> Array.to_list
    |> List.map (fun f -> (Unix.stat (Filename.concat dir f)).st_size)
    |> List.fold_left max 0
  in
  let stats = R.Cache.gc ~max_bytes:budget cache in
  Alcotest.(check int) "two evicted to fit the budget" 2 stats.evicted;
  Alcotest.(check bool) "newest survives" true
    (R.Cache.find cache ~key:"third" <> None);
  Alcotest.(check bool) "oldest went first" true
    (R.Cache.find cache ~key:"first" = None
    && R.Cache.find cache ~key:"second" = None);
  Alcotest.(check bool) "kept fits" true (stats.bytes_kept <= budget)

let test_gc_always_drops_corrupt () =
  let dir = temp_dir () in
  let cache = R.Cache.open_dir dir in
  R.Cache.store cache ~key:"sound" (J.Int 1);
  let oc = open_out (Filename.concat dir "deadbeefdeadbeef.json") in
  output_string oc "{ not json";
  close_out oc;
  (* No age or size bound: only the damaged entry goes. *)
  let stats = R.Cache.gc cache in
  Alcotest.(check int) "one corrupt" 1 stats.corrupt;
  Alcotest.(check int) "only it evicted" 1 stats.evicted;
  Alcotest.(check bool) "sound entry untouched" true
    (R.Cache.find cache ~key:"sound" <> None)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let link_exists path =
  match Unix.lstat path with
  | _ -> true
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false

(* A store whose write fails leaks nothing: its .tmp path is a symlink to
   /dev/full, so the closing flush fails with ENOSPC.  The call must
   raise, close its channel, remove the .tmp and leave every entry
   served. *)
let test_failed_store_cleans_up () =
  if not (Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd") then
    Alcotest.skip ();
  let dir = temp_dir () in
  let cache = R.Cache.open_dir dir in
  R.Cache.store cache ~key:"kept" (J.Int 1);
  let tmp =
    Filename.concat dir
      (Prelude.Util.hex64 (Prelude.Util.fnv1a64 "lost") ^ ".json.tmp")
  in
  Unix.symlink "/dev/full" tmp;
  let before = open_fds () in
  let raised =
    match R.Cache.store cache ~key:"lost" (J.Int 2) with
    | () -> false
    | exception Sys_error _ -> true
  in
  Alcotest.(check bool) "store raised" true raised;
  Alcotest.(check int) "no descriptor leaked" before (open_fds ());
  Alcotest.(check bool) ".tmp removed" false (link_exists tmp);
  List.iter
    (fun cache ->
      Alcotest.(check bool) "kept entry served" true
        (R.Cache.find cache ~key:"kept" = Some (J.Int 1));
      Alcotest.(check bool) "failed entry not served" true
        (R.Cache.find cache ~key:"lost" = None))
    [ cache; R.Cache.open_dir dir ]

let test_gc_evicted_sweep_recomputes () =
  let dir = temp_dir () in
  let counter = Atomic.make 0 in
  let cfg = config ~workers:2 ~cache_dir:dir () in
  let cold = R.map ~config:cfg ~name:"g" (counted_tasks counter ~tag:"g" 6) in
  (* A zero byte budget evicts every entry: the cache is the only store
     of results, so nothing may serve the rerun. *)
  let stats = R.Cache.gc ~max_bytes:0 (R.Cache.open_dir dir) in
  Alcotest.(check int) "every entry evicted" 6 stats.evicted;
  let again = R.map ~config:cfg ~name:"g" (counted_tasks counter ~tag:"g" 6) in
  Alcotest.(check int) "every task recomputed" 12 (Atomic.get counter);
  Alcotest.(check bool) "values unchanged" true (cold = again)

(* {1 Resume from the cache} *)

(* Tasks that count their completions per index; while [armed] is set,
   task [stop_at] fails, stopping the sweep part-way as a kill would. *)
let stoppable_tasks ~armed ~stop_at done_ =
  Array.mapi
    (fun i count ->
      R.Task.make
        ~key:(R.Task.key_of ~family:"test.stoppable" [ ("i", J.Int i) ])
        ~encode:(fun v -> J.Float v)
        ~decode:J.to_float_opt
        (fun rng ->
          if Atomic.get armed && i = stop_at then failwith "stopped";
          Atomic.incr count;
          Prelude.Rng.float rng 1.0 +. float_of_int i))
    done_

let test_resume_after_kill () =
  let n = 8 and stop_at = 5 in
  let counts () = Array.init n (fun _ -> Atomic.make 0) in
  List.iter
    (fun workers ->
      let dir = temp_dir () in
      let cfg = config ~workers ~cache_dir:dir () in
      let armed = Atomic.make true in
      let first = counts () in
      Alcotest.check_raises
        (Printf.sprintf "-j %d: task %d stops the sweep" workers stop_at)
        (Failure "stopped")
        (fun () ->
          ignore
            (R.map ~config:cfg ~name:"resume"
               (stoppable_tasks ~armed ~stop_at first)));
      let finished = Array.map Atomic.get first in
      (* Tasks are claimed in order, so every task before the failing one
         finished; later ones may have, on another domain. *)
      Alcotest.(check (array int)) "the tasks before the failure finished"
        (Array.make stop_at 1) (Array.sub finished 0 stop_at);
      Alcotest.(check int) "each finished task left a cache entry"
        (Array.fold_left ( + ) 0 finished)
        (R.Cache.entries (R.Cache.open_dir dir));
      Atomic.set armed false;
      let second = counts () in
      let resumed =
        R.map ~config:cfg ~name:"resume"
          (stoppable_tasks ~armed ~stop_at second)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "-j %d: the rerun computes only the unfinished tasks"
           workers)
        (Array.map (fun c -> 1 - c) finished)
        (Array.map Atomic.get second);
      let whole =
        R.map ~config:(config ~workers ()) ~name:"whole"
          (stoppable_tasks ~armed ~stop_at (counts ()))
      in
      Alcotest.(check bool) "resumed sweep = uninterrupted sweep" true
        (resumed = whole))
    [ 1; 2 ]

(* {1 Pool and telemetry} *)

let test_pool_exception_propagates () =
  let boom =
    R.Task.make
      ~key:(R.Task.key_of ~family:"test.boom" [])
      ~encode:(fun v -> J.Float v)
      ~decode:J.to_float_opt
      (fun _rng -> failwith "boom")
  in
  List.iter
    (fun workers ->
      Alcotest.check_raises
        (Printf.sprintf "task failure surfaces at -j %d" workers)
        (Failure "boom")
        (fun () ->
          ignore (R.map ~config:(config ~workers ()) ~name:"b" [| boom |])))
    [ 1; 4 ]

let test_run_manifest_emitted () =
  let registry = Telemetry.Registry.create ~label:"t" () in
  let sink, events = Telemetry.Sink.memory () in
  Telemetry.Registry.add_sink registry sink;
  let dir = temp_dir () in
  let counter = Atomic.make 0 in
  let cfg = config ~workers:3 ~cache_dir:dir () in
  ignore (R.map ~registry ~config:cfg ~name:"m" (counted_tasks counter ~tag:"m" 5));
  ignore (R.map ~registry ~config:cfg ~name:"m" (counted_tasks counter ~tag:"m" 5));
  let manifests =
    List.filter
      (fun (e : Telemetry.Event.t) -> e.name = "run_manifest")
      (events ())
  in
  Alcotest.(check int) "one manifest per sweep" 2 (List.length manifests);
  let cold = List.nth manifests 0 and warm = List.nth manifests 1 in
  let int_field name e =
    match Telemetry.Event.field name e with
    | Some (J.Int i) -> i
    | _ -> Alcotest.failf "missing field %s" name
  in
  let float_field name e =
    match Option.bind (Telemetry.Event.field name e) J.to_float_opt with
    | Some f -> f
    | None -> Alcotest.failf "missing field %s" name
  in
  Alcotest.(check int) "task count" 5 (int_field "tasks" cold);
  Alcotest.(check int) "worker count" 3 (int_field "workers" cold);
  Alcotest.(check int) "cold computes" 5 (int_field "computed" cold);
  Alcotest.(check (float 0.)) "cold hit rate" 0. (float_field "cache_hit_rate" cold);
  Alcotest.(check int) "warm computes nothing" 0 (int_field "computed" warm);
  Alcotest.(check (float 0.)) "warm hit rate" 1. (float_field "cache_hit_rate" warm)

let test_no_cache_always_computes () =
  let counter = Atomic.make 0 in
  ignore (R.map ~config:(config ()) ~name:"n" (counted_tasks counter ~tag:"n" 3));
  ignore (R.map ~config:(config ()) ~name:"n" (counted_tasks counter ~tag:"n" 3));
  Alcotest.(check int) "no cache dir, no reuse" 6 (Atomic.get counter)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "runner"
    [
      ( "task",
        [
          quick "key field order" test_key_field_order_insensitive;
          quick "rng of key" test_rng_of_key;
        ] );
      ( "determinism",
        [
          quick "spatial sweep: -j k = serial" test_parallel_bit_identical_spatial;
          QCheck_alcotest.to_alcotest test_parallel_bit_identical_qcheck;
          quick "seed threads through" test_seed_changes_results;
        ] );
      ( "cache",
        [
          quick "hits skip recomputation" test_cache_hits_skip_recomputation;
          quick "shared across sweeps" test_cache_shared_across_sweeps;
          quick "corrupt entry recomputes" test_corrupt_cache_entry_recomputes;
          quick "no cache, no reuse" test_no_cache_always_computes;
          quick "gc evicts by age" test_gc_evicts_by_age;
          quick "gc size budget, oldest first" test_gc_size_budget_oldest_first;
          quick "gc always drops corrupt entries" test_gc_always_drops_corrupt;
          quick "failed store cleans up" test_failed_store_cleans_up;
          quick "gc-evicted sweep recomputes" test_gc_evicted_sweep_recomputes;
        ] );
      ( "resume",
        [
          quick "resume after kill" test_resume_after_kill;
        ] );
      ( "pool",
        [
          quick "exceptions propagate" test_pool_exception_propagates;
          quick "run_manifest audit" test_run_manifest_emitted;
        ] );
    ]
