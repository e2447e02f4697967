let g6 x = Printf.sprintf "%.6g" x

let render ?(registry = Registry.default) ?recorder () =
  let buf = Buffer.create 1024 in
  let section title columns rows =
    if rows <> [] then begin
      Buffer.add_string buf title;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Prelude.Table.render columns rows);
      Buffer.add_char buf '\n'
    end
  in
  let left = Prelude.Table.column ~align:Prelude.Table.Left in
  let right = Prelude.Table.column in
  section
    (Printf.sprintf "counters (%s)" (Registry.label registry))
    [ left "counter"; right "count" ]
    (List.map
       (fun (name, c) -> [ name; string_of_int (Metric.count c) ])
       (Registry.counters registry));
  section
    (Printf.sprintf "gauges (%s)" (Registry.label registry))
    [ left "gauge"; right "value" ]
    (List.map
       (fun (name, g) -> [ name; g6 (Metric.value g) ])
       (Registry.gauges registry));
  section
    (Printf.sprintf "histograms (%s)" (Registry.label registry))
    [ left "histogram"; right "count"; right "mean"; right "stddev";
      right "min"; right "max" ]
    (List.map
       (fun (name, h) ->
         let empty = Metric.observations h = 0 in
         let cell v = if empty then "-" else g6 v in
         [
           name;
           string_of_int (Metric.observations h);
           cell (Metric.mean h);
           cell (Metric.stddev h);
           cell (Metric.hmin h);
           cell (Metric.hmax h);
         ])
       (Registry.histograms registry));
  (match recorder with
  | None -> ()
  | Some r ->
      let st = Recorder.stats r in
      if st.written > 0 || st.dropped > 0 then
        section
          (Printf.sprintf "flight recorder (%s)" (Registry.label registry))
          [ left "trace"; right "value" ]
          [
            [ "rings"; string_of_int st.rings ];
            [ "records held"; string_of_int st.live ];
            [ "records written"; string_of_int st.written ];
            [ "records dropped"; string_of_int st.dropped ];
          ]);
  Buffer.contents buf
