type t = {
  cell : float;
  cols : int;
  rows : int;
  xs : float array;
  ys : float array;
  buckets : int array array; (* members as a dense prefix of each row *)
  lens : int array;
  mutable scratch : int array; (* {!query}'s buffer, sized on first use *)
  mutable candidates : int;
}

(* Cell index of coordinate [v] along an axis of [cells] cells, clamped to
   the grid.  The clamp happens on the float floor, so an unbounded query
   box (an infinite radius) still maps to the edge cells. *)
let[@inline] axis t cells v =
  let c = Float.floor (v /. t.cell) in
  if c <= 0. then 0
  else if c >= float_of_int (cells - 1) then cells - 1
  else int_of_float c

let cell_of t i = (axis t t.rows t.ys.(i) * t.cols) + axis t t.cols t.xs.(i)

let bucket_push t b i =
  let len = t.lens.(b) in
  let bucket = t.buckets.(b) in
  let bucket =
    if len < Array.length bucket then bucket
    else begin
      let grown = Array.make (Stdlib.max 4 (2 * len)) 0 in
      Array.blit bucket 0 grown 0 len;
      t.buckets.(b) <- grown;
      grown
    end
  in
  bucket.(len) <- i;
  t.lens.(b) <- len + 1

(* NaN fails every comparison, so the checks are written to pass only
   finite, non-negative coordinates. *)
let valid (p : Geom.point) =
  p.x >= 0. && p.y >= 0. && Float.is_finite p.x && Float.is_finite p.y

let create ~cell points =
  if not (cell > 0. && Float.is_finite cell) then
    invalid_arg "Grid.create: cell must be positive and finite";
  let n = Array.length points in
  let maxx = ref 0. and maxy = ref 0. in
  Array.iter
    (fun (p : Geom.point) ->
      if not (valid p) then
        invalid_arg "Grid.create: coordinates must be finite and non-negative";
      if p.x > !maxx then maxx := p.x;
      if p.y > !maxy then maxy := p.y)
    points;
  let extent v = 1 + int_of_float (Float.floor (v /. cell)) in
  let cols = extent !maxx and rows = extent !maxy in
  let t =
    {
      cell;
      cols;
      rows;
      xs = Array.map (fun (p : Geom.point) -> p.x) points;
      ys = Array.map (fun (p : Geom.point) -> p.y) points;
      buckets = Array.make (cols * rows) [||];
      lens = Array.make (cols * rows) 0;
      scratch = [||];
      candidates = 0;
    }
  in
  for i = 0 to n - 1 do
    bucket_push t (cell_of t i) i
  done;
  t

let cell_order t =
  let order = Array.make (Array.length t.xs) 0 in
  let k = ref 0 in
  Array.iteri
    (fun b bucket ->
      Array.blit bucket 0 order !k t.lens.(b);
      k := !k + t.lens.(b))
    t.buckets;
  order

(* The candidate box is the padded axis-aligned square of half-width
   [radius] around id [i]: a superset of the disk, so callers filter with
   an exact predicate.  The pad absorbs the rounding of [x -. radius]
   against a bucket boundary — a member at distance exactly [radius] can
   otherwise fall one cell outside a box computed in floats. *)
let gather t ~radius i buf =
  if not (radius >= 0.) then invalid_arg "Grid.gather: negative radius";
  let x = t.xs.(i) and y = t.ys.(i) in
  let r = radius +. (t.cell *. 1e-9) in
  let c0 = axis t t.cols (x -. r) and c1 = axis t t.cols (x +. r) in
  let r0 = axis t t.rows (y -. r) and r1 = axis t t.rows (y +. r) in
  let len = ref 0 in
  for row = r0 to r1 do
    let base = row * t.cols in
    for b = base + c0 to base + c1 do
      let bucket = t.buckets.(b) in
      for k = 0 to t.lens.(b) - 1 do
        buf.(!len) <- bucket.(k);
        incr len
      done
    done
  done;
  t.candidates <- t.candidates + !len;
  !len

let query t ~radius i =
  if Array.length t.scratch = 0 then
    t.scratch <- Array.make (Array.length t.xs) 0;
  let buf = t.scratch in
  let k = gather t ~radius i buf in
  let x = t.xs.(i) and y = t.ys.(i) and r2 = radius *. radius in
  let m = ref 0 in
  for c = 0 to k - 1 do
    let j = buf.(c) in
    let dx = x -. t.xs.(j) and dy = y -. t.ys.(j) in
    if j <> i && (dx *. dx) +. (dy *. dy) <= r2 then begin
      buf.(!m) <- j;
      incr m
    end
  done;
  Prelude.Util.sort_ints buf !m;
  List.init !m (Array.get buf)

let candidates t = t.candidates
