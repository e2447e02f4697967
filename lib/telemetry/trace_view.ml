type span_stat = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  min_s : float;
}

type summary = {
  spans : span_stat list;
  instants : (string * int) list;
  records : int;
  dropped : int;
  orphan_ends : int;
  unclosed : int;
  wall_s : float;
  domains : int;
}

type open_span = {
  o_name : int;
  o_ts : int;
  o_parent : int;
  mutable o_child : int;  (* ns attributed to already-closed children *)
}

let summarize (d : Recorder.dump) =
  let n_names = Array.length d.names in
  let count = Array.make n_names 0 in
  let total = Array.make n_names 0 in
  let self = Array.make n_names 0 in
  let shortest = Array.make n_names max_int in
  let inst = Array.make n_names 0 in
  let live = Hashtbl.create 64 in
  let domains = Hashtbl.create 8 in
  let orphan_ends = ref 0 in
  Array.iter
    (fun (r : Recorder.record) ->
      Hashtbl.replace domains r.domain ();
      if r.kind = Recorder.kind_begin then
        Hashtbl.replace live r.span
          { o_name = r.name; o_ts = r.ts; o_parent = r.parent; o_child = 0 }
      else if r.kind = Recorder.kind_end then begin
        match Hashtbl.find_opt live r.span with
        | None -> incr orphan_ends
        | Some o ->
            Hashtbl.remove live r.span;
            let dur = r.ts - o.o_ts in
            count.(o.o_name) <- count.(o.o_name) + 1;
            total.(o.o_name) <- total.(o.o_name) + dur;
            shortest.(o.o_name) <- Stdlib.min shortest.(o.o_name) dur;
            self.(o.o_name) <- self.(o.o_name) + Stdlib.max 0 (dur - o.o_child);
            (match Hashtbl.find_opt live o.o_parent with
            | Some p -> p.o_child <- p.o_child + dur
            | None -> ())
      end
      else inst.(r.name) <- inst.(r.name) + 1)
    d.records;
  let spans =
    List.init n_names Fun.id
    |> List.filter (fun i -> count.(i) > 0)
    |> List.map (fun i ->
           {
             name = d.names.(i);
             count = count.(i);
             total_s = float_of_int total.(i) *. 1e-9;
             self_s = float_of_int self.(i) *. 1e-9;
             min_s = float_of_int shortest.(i) *. 1e-9;
           })
    |> List.sort (fun x y -> compare y.self_s x.self_s)
  in
  let instants =
    List.init n_names Fun.id
    |> List.filter (fun i -> inst.(i) > 0)
    |> List.map (fun i -> (d.names.(i), inst.(i)))
    |> List.sort (fun (_, x) (_, y) -> compare y x)
  in
  let n = Array.length d.records in
  let wall_s =
    if n < 2 then 0.
    else float_of_int (d.records.(n - 1).ts - d.records.(0).ts) *. 1e-9
  in
  {
    spans;
    instants;
    records = n;
    dropped = d.dropped;
    orphan_ends = !orphan_ends;
    unclosed = Hashtbl.length live;
    wall_s;
    domains = Hashtbl.length domains;
  }

let fmt_s ppf s =
  if s >= 1. then Format.fprintf ppf "%.3f s" s
  else if s >= 1e-3 then Format.fprintf ppf "%.3f ms" (s *. 1e3)
  else if s >= 1e-6 then Format.fprintf ppf "%.3f us" (s *. 1e6)
  else Format.fprintf ppf "%.0f ns" (s *. 1e9)

let render_summary ?(top = 15) ppf s =
  Format.fprintf ppf "trace: %d records over %a on %d domain%s@."
    s.records fmt_s s.wall_s s.domains
    (if s.domains = 1 then "" else "s");
  if s.spans <> [] then begin
    Format.fprintf ppf "@.%-32s %8s %12s %12s@." "span (by self time)" "count"
      "self" "total";
    let shown = ref 0 in
    List.iter
      (fun st ->
        if !shown < top then begin
          incr shown;
          Format.fprintf ppf "%-32s %8d %12s %12s@." st.name st.count
            (Format.asprintf "%a" fmt_s st.self_s)
            (Format.asprintf "%a" fmt_s st.total_s)
        end)
      s.spans;
    let rest = List.length s.spans - !shown in
    if rest > 0 then Format.fprintf ppf "  ... and %d more span name%s@." rest
        (if rest = 1 then "" else "s")
  end;
  if s.instants <> [] then begin
    Format.fprintf ppf "@.%-32s %8s@." "instant" "count";
    let shown = ref 0 in
    List.iter
      (fun (name, n) ->
        if !shown < top then begin
          incr shown;
          Format.fprintf ppf "%-32s %8d@." name n
        end)
      s.instants;
    let rest = List.length s.instants - !shown in
    if rest > 0 then Format.fprintf ppf "  ... and %d more instant name%s@."
        rest (if rest = 1 then "" else "s")
  end;
  if s.dropped > 0 then
    Format.fprintf ppf
      "@.WARNING: %d records dropped to ring wrap — totals are lower bounds@."
      s.dropped;
  if s.orphan_ends > 0 || s.unclosed > 0 then
    Format.fprintf ppf "note: %d orphan end%s, %d unclosed span%s@."
      s.orphan_ends
      (if s.orphan_ends = 1 then "" else "s")
      s.unclosed
      (if s.unclosed = 1 then "" else "s")

let to_chrome (d : Recorder.dump) =
  let t0 = if Array.length d.records = 0 then 0 else d.records.(0).ts in
  let us ts = float_of_int (ts - t0) /. 1e3 in
  let events =
    Array.to_list d.records
    |> List.map (fun (r : Recorder.record) ->
           let common =
             [
               ("name", Jsonx.String d.names.(r.name));
               ("ts", Jsonx.Float (us r.ts));
               ("pid", Jsonx.Int 0);
               ("tid", Jsonx.Int r.domain);
             ]
           in
           if r.kind = Recorder.kind_begin then
             Jsonx.Obj
               (("ph", Jsonx.String "B") :: common
               @ [
                   ( "args",
                     Jsonx.Obj
                       [
                         ("span", Jsonx.Int r.span);
                         ("parent", Jsonx.Int r.parent);
                         ("a", Jsonx.Int r.a);
                         ("b", Jsonx.Int r.b);
                       ] );
                 ])
           else if r.kind = Recorder.kind_end then
             Jsonx.Obj (("ph", Jsonx.String "E") :: common)
           else
             Jsonx.Obj
               (("ph", Jsonx.String "i") :: ("s", Jsonx.String "t") :: common
               @ [
                   ( "args",
                     Jsonx.Obj [ ("a", Jsonx.Int r.a); ("b", Jsonx.Int r.b) ] );
                 ]))
  in
  Jsonx.Obj
    [
      ("traceEvents", Jsonx.List events);
      ("displayTimeUnit", Jsonx.String "ms");
      ("otherData", Jsonx.Obj [ ("dropped_records", Jsonx.Int d.dropped) ]);
    ]

type delta = {
  span : string;
  a_count : int;
  b_count : int;
  a_s : float;
  b_s : float;
  ratio : float;
  min_ratio : float;
  flagged : bool;
}

let change a b = if a > 0. then (b -. a) /. a else Float.infinity

(* A span is flagged only when its total and its shortest instance both
   moved past the threshold.  A neighbour's burst of load stretches a few
   instances, which moves the total but not the shortest; a machine that
   runs one whole recording slower moves both, as a regression does.
   Needing both passes every pair that either statistic alone passes. *)
let diff ?(threshold = 0.25) ?(min_seconds = 1e-4) da db =
  let sa = summarize da and sb = summarize db in
  let absent =
    { name = ""; count = 0; total_s = 0.; self_s = 0.; min_s = 0. }
  in
  let tbl = Hashtbl.create 32 in
  List.iter (fun st -> Hashtbl.replace tbl st.name (st, absent)) sa.spans;
  List.iter
    (fun st ->
      let a =
        Option.fold ~none:absent ~some:fst (Hashtbl.find_opt tbl st.name)
      in
      Hashtbl.replace tbl st.name (a, st))
    sb.spans;
  Hashtbl.fold
    (fun span (a, b) acc ->
      let ratio = change a.total_s b.total_s
      and min_ratio = change a.min_s b.min_s in
      let flagged =
        a.count <> b.count
        || Float.abs ratio > threshold
           && Float.abs min_ratio > threshold
           && Stdlib.max a.total_s b.total_s >= min_seconds
      in
      {
        span;
        a_count = a.count;
        b_count = b.count;
        a_s = a.total_s;
        b_s = b.total_s;
        ratio;
        min_ratio;
        flagged;
      }
      :: acc)
    tbl []
  |> List.sort (fun x y ->
         match compare y.flagged x.flagged with
         | 0 -> compare (Float.abs y.ratio) (Float.abs x.ratio)
         | c -> c)

let render_diff ppf deltas =
  let pct r = if Float.is_finite r then r *. 100. else Float.infinity in
  Format.fprintf ppf "%-32s %12s %12s %10s %10s %13s@." "span" "trace A"
    "trace B" "delta" "min delta" "count A/B";
  List.iter
    (fun d ->
      Format.fprintf ppf "%-32s %12s %12s %9.1f%% %9.1f%% %13s%s@." d.span
        (Format.asprintf "%a" fmt_s d.a_s)
        (Format.asprintf "%a" fmt_s d.b_s)
        (pct d.ratio) (pct d.min_ratio)
        (Printf.sprintf "%d/%d" d.a_count d.b_count)
        (if d.flagged then "  << FLAGGED" else ""))
    deltas;
  let n = List.length (List.filter (fun d -> d.flagged) deltas) in
  if n > 0 then
    Format.fprintf ppf "@.%d span%s exceeded the regression threshold@." n
      (if n = 1 then "" else "s")
  else Format.fprintf ppf "@.no span exceeded the regression threshold@."

let flagged deltas = List.length (List.filter (fun d -> d.flagged) deltas)
