type t = {
  emit : Event.t -> unit;
  close : unit -> unit;
}

let memory () =
  let events = Queue.create () in
  let sink = { emit = (fun e -> Queue.add e events); close = (fun () -> ()) } in
  (sink, fun () -> List.of_seq (Queue.to_seq events))

let jsonl path =
  let oc = open_out path in
  let closed = ref false in
  {
    emit =
      (fun e ->
        if not !closed then begin
          output_string oc (Event.to_line e);
          output_char oc '\n'
        end);
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          close_out oc
        end);
  }

let emit t e = t.emit e

let close t = t.close ()
