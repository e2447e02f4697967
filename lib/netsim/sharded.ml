type config = {
  params : Dcf.Params.t;
  positions : Mobility.Geom.point array;
  range : float;
  cs_range : float;
  cws : int array;
  duration : float;
  seed : int;
}

type shard_info = {
  shard : int;
  owned : int;
  mirrored : int;
  wall_seconds : float;
}

type result = {
  time : float;
  per_node : Spatial.node_stats array;
  welfare_rate : float;
  delivered : int;
  shards : shard_info array;
}

let node_rng ~seed gid =
  Prelude.Rng.of_key ~seed ("netsim.sharded.node|" ^ string_of_int gid)

(* A shard's span carries (shard index, nodes it simulates, ghosts
   included). *)
let recorder = Telemetry.Recorder.default
let nid_shard = Telemetry.Recorder.intern recorder "netsim.shard"

(* Counters a shard-local registry accumulates that are worth folding back
   into the caller's registry after the join (each shard runs against its
   own registry so no two domains ever race on one metric cell). *)
let folded_counters = [ "netsim.grid.candidates"; "netsim.spatial.runs" ]

let run ?(telemetry = Telemetry.Registry.default) ?(retry_limit = max_int)
    ?strategies ?pool ?halo ~shards
    { params; positions; range; cs_range; cws; duration; seed } =
  let n = Array.length positions in
  if n = 0 then invalid_arg "Sharded.run: empty network";
  if shards < 1 then invalid_arg "Sharded.run: shards must be >= 1";
  if Array.length cws <> n then
    invalid_arg "Sharded.run: cws length mismatch";
  (match strategies with
  | Some ss when Array.length ss <> n ->
      invalid_arg "Sharded.run: strategies length mismatch"
  | _ -> ());
  (* Written so NaN fails them too. *)
  if not (range > 0. && Float.is_finite range) then
    invalid_arg "Sharded.run: range must be positive and finite";
  if not (cs_range >= range && Float.is_finite cs_range) then
    invalid_arg "Sharded.run: cs_range must be finite and >= range";
  let halo = Option.value halo ~default:(Stdlib.max cs_range (2. *. range)) in
  if not (halo >= 0. && Float.is_finite halo) then
    invalid_arg "Sharded.run: halo must be finite and >= 0";
  let xmin = ref infinity and xmax = ref neg_infinity in
  Array.iter
    (fun (p : Mobility.Geom.point) ->
      if not (Float.is_finite p.x && Float.is_finite p.y) then
        invalid_arg "Sharded.run: coordinates must be finite";
      if p.x < !xmin then xmin := p.x;
      if p.x > !xmax then xmax := p.x)
    positions;
  let strip = (!xmax -. !xmin) /. float_of_int shards in
  let owner =
    Array.init n (fun i ->
        if strip <= 0. then 0
        else
          Stdlib.min (shards - 1)
            (int_of_float ((positions.(i).x -. !xmin) /. strip)))
  in
  (* Shard membership: every node in the strip, plus ghosts within [halo]
     of either strip edge.  Owners are members of their strip regardless
     of float rounding in the strip bounds. *)
  let members = Array.make shards [] in
  for i = n - 1 downto 0 do
    let x = positions.(i).Mobility.Geom.x in
    for k = shards - 1 downto 0 do
      let lo = !xmin +. (float_of_int k *. strip) in
      let hi = lo +. strip in
      if owner.(i) = k || (x >= lo -. halo && x <= hi +. halo) then
        members.(k) <- i :: members.(k)
    done
  done;
  (* Shards with no owned nodes contribute no statistics; skip them. *)
  let live =
    List.filter_map
      (fun k ->
        let gids = Array.of_list members.(k) in
        let owned =
          Array.fold_left
            (fun acc gid -> if owner.(gid) = k then acc + 1 else acc)
            0 gids
        in
        if owned = 0 then None else Some (k, gids, owned))
      (List.init shards Fun.id)
    |> Array.of_list
  in
  let jobs_n = Array.length live in
  let results = Array.make jobs_n None in
  let walls = Array.make jobs_n 0. in
  let registries =
    Array.init jobs_n (fun _ -> Telemetry.Registry.create ())
  in
  let job idx =
    let k, gids, _owned = live.(idx) in
    let sub n_of = Array.map n_of gids in
    let sub_positions = sub (fun gid -> positions.(gid)) in
    let sub_cws = sub (fun gid -> cws.(gid)) in
    let sub_strategies =
      Option.map (fun ss -> sub (fun gid -> ss.(gid))) strategies
    in
    let rng_of li = node_rng ~seed gids.(li) in
    fun () ->
      let t0 = Unix.gettimeofday () in
      Telemetry.Recorder.with_span recorder nid_shard k (Array.length gids)
        (fun () ->
          results.(idx) <-
            Some
              (Spatial.run_grid ~telemetry:registries.(idx) ~retry_limit
                 ?strategies:sub_strategies ~rng_of ~params
                 ~positions:sub_positions ~range ~cs_range ~cws:sub_cws
                 ~duration ~seed ()));
      walls.(idx) <- Unix.gettimeofday () -. t0
  in
  let jobs = Array.init jobs_n job in
  let pool =
    match pool with
    | Some p -> p
    | None -> Runner.Pool.create ~registry:telemetry ~workers:jobs_n ()
  in
  ignore (Runner.Pool.run pool jobs);
  (* Ownership resolves every node exactly once: each gid's owning strip
     has at least that one owned node, so its shard ran. *)
  let merged : Spatial.node_stats option array = Array.make n None in
  let infos =
    Array.mapi
      (fun idx (k, gids, owned) ->
        let r =
          match results.(idx) with
          | Some r -> r
          | None -> failwith "Sharded.run: shard produced no result"
        in
        Array.iteri
          (fun li gid ->
            if owner.(gid) = k then merged.(gid) <- Some r.Spatial.per_node.(li))
          gids;
        { shard = k; owned; mirrored = Array.length gids - owned;
          wall_seconds = walls.(idx) })
      live
  in
  let per_node =
    Array.map
      (function
        | Some s -> s
        | None -> failwith "Sharded.run: node owned by no shard")
      merged
  in
  let time =
    match results.(0) with
    | Some r -> r.Spatial.time
    | None -> failwith "Sharded.run: shard produced no result"
  in
  let welfare_rate =
    Array.fold_left
      (fun acc (s : Spatial.node_stats) -> acc +. s.payoff_rate)
      0. per_node
  in
  let delivered =
    Array.fold_left
      (fun acc (s : Spatial.node_stats) -> acc + s.successes)
      0 per_node
  in
  (* Fold the shard-local registries back into the caller's, and publish
     per-shard utilization (busy wall over the slowest shard's wall, the
     straggler view). *)
  Array.iter
    (fun reg ->
      List.iter
        (fun name ->
          let c = Telemetry.Metric.count (Telemetry.Registry.counter reg name) in
          if c > 0 then
            Telemetry.Metric.add
              (Telemetry.Registry.counter telemetry name)
              c)
        folded_counters)
    registries;
  let slowest = Array.fold_left Stdlib.max 0. walls in
  Array.iter
    (fun info ->
      Telemetry.Metric.set
        (Telemetry.Registry.gauge telemetry
           (Printf.sprintf "netsim.shard%d.utilization" info.shard))
        (if slowest > 0. then info.wall_seconds /. slowest else 0.))
    infos;
  Telemetry.Metric.incr
    (Telemetry.Registry.counter telemetry "netsim.sharded.runs");
  let mirrored_total =
    Array.fold_left (fun acc i -> acc + i.mirrored) 0 infos
  in
  Telemetry.Registry.emit telemetry "sharded_run_summary" (fun () ->
      [
        ("sim", Telemetry.Jsonx.String "sharded");
        ("n", Telemetry.Jsonx.Int n);
        ("seed", Telemetry.Jsonx.Int seed);
        ("shards", Telemetry.Jsonx.Int jobs_n);
        ("mirrored", Telemetry.Jsonx.Int mirrored_total);
        ("time", Telemetry.Jsonx.Float time);
        ("welfare_rate", Telemetry.Jsonx.Float welfare_rate);
        ("delivered", Telemetry.Jsonx.Int delivered);
      ]);
  { time; per_node; welfare_rate; delivered; shards = infos }
