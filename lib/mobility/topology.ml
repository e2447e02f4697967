let adjacency ~range positions =
  if range <= 0. then invalid_arg "Topology.adjacency: range must be positive";
  let n = Array.length positions in
  let lists = Array.make n [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if Geom.within ~range positions.(i) positions.(j) then begin
        lists.(i) <- j :: lists.(i);
        lists.(j) <- i :: lists.(j)
      end
    done
  done;
  lists

let bfs lists source =
  let n = Array.length lists in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(source) <- true;
  Queue.add source queue;
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr count;
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      lists.(u)
  done;
  (seen, !count)

let is_connected lists =
  let n = Array.length lists in
  n = 0 || snd (bfs lists 0) = n

let largest_component lists =
  let n = Array.length lists in
  let assigned = Array.make n false in
  let best = ref [] and best_size = ref 0 in
  for i = 0 to n - 1 do
    if not assigned.(i) then begin
      let seen, size = bfs lists i in
      let members = ref [] in
      for j = n - 1 downto 0 do
        if seen.(j) then begin
          assigned.(j) <- true;
          members := j :: !members
        end
      done;
      if size > !best_size then begin
        best := !members;
        best_size := size
      end
    end
  done;
  !best

let restrict lists keep =
  let index = Hashtbl.create (List.length keep) in
  List.iteri (fun new_id old_id -> Hashtbl.add index old_id new_id) keep;
  keep
  |> List.map (fun old_id ->
         List.filter_map (fun j -> Hashtbl.find_opt index j) lists.(old_id))
  |> Array.of_list

let average_degree lists =
  let n = Array.length lists in
  if n = 0 then 0.
  else
    float_of_int (Array.fold_left (fun acc l -> acc + List.length l) 0 lists)
    /. float_of_int n

let snapshot ?(connect_attempts = 0) walkers ~range =
  let current () = adjacency ~range (Waypoint.positions walkers) in
  let rec search attempts adj =
    if attempts <= 0 || is_connected adj then adj
    else begin
      Waypoint.step walkers ~dt:10.;
      search (attempts - 1) (current ())
    end
  in
  search connect_attempts (current ())
