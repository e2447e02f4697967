(* Metrics/events go through [registry]; identity (span id, parent id)
   comes from the flight recorder so cross-domain traces can reconstruct
   the call tree.  When the recorder is disabled the id is 0 and nothing
   is recorded or interned.  The per-span path takes no lock and, with no
   sink attached, allocates nothing beyond the clock readings. *)

let finish registry recorder name t0 depth nid rid parent fields =
  Recorder.end_span recorder nid rid;
  let dt = Registry.now registry -. t0 in
  Registry.leave_span registry;
  let cells = Registry.span_cells registry name in
  Metric.observe cells.seconds dt;
  Metric.incr cells.calls;
  if Registry.active registry then
    Registry.emit registry "span" (fun () ->
        ("name", Jsonx.String name)
        :: ("seconds", Jsonx.Float dt)
        :: ("depth", Jsonx.Int depth)
        :: (if rid = 0 then []
            else [ ("span", Jsonx.Int rid); ("parent", Jsonx.Int parent) ])
        @ (match fields with None -> [] | Some fields -> fields ()))

let begin_recorded recorder name =
  if Recorder.enabled recorder then
    let nid = Recorder.intern recorder name in
    (nid, Recorder.begin_span recorder nid 0 0)
  else (0, 0)

let with_span ?(registry = Registry.default) ?(recorder = Recorder.default)
    ?fields name f =
  let t0 = Registry.now registry in
  let depth = Registry.enter_span registry in
  let parent = Recorder.current_span recorder in
  let nid, rid = begin_recorded recorder name in
  match f () with
  | v ->
      finish registry recorder name t0 depth nid rid parent fields;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish registry recorder name t0 depth nid rid parent fields;
      Printexc.raise_with_backtrace e bt
