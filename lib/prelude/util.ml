(* Annotated: a polymorphic body compares through [caml_lessthan] on
   boxed floats. *)
let clamp ~lo ~hi (x : float) = if x < lo then lo else if x > hi then hi else x

let approx_equal ?(eps = 1e-9) a b =
  let scale = Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= eps *. scale

let linspace lo hi n =
  if n < 2 then invalid_arg "Util.linspace: need at least two points";
  let step = (hi -. lo) /. float_of_int (n - 1) in
  Array.init n (fun i -> lo +. (float_of_int i *. step))

let logspace lo hi n =
  if lo <= 0. || hi <= 0. then invalid_arg "Util.logspace: bounds must be positive";
  Array.map exp (linspace (log lo) (log hi) n)

let int_range lo hi =
  if hi < lo then [||] else Array.init (hi - lo + 1) (fun i -> lo + i)

let argmax f a =
  if Array.length a = 0 then invalid_arg "Util.argmax: empty array";
  let best = ref 0 and best_v = ref (f a.(0)) in
  for i = 1 to Array.length a - 1 do
    let v = f a.(i) in
    if v > !best_v then begin
      best := i;
      best_v := v
    end
  done;
  !best

let argmin f a = argmax (fun x -> -.f x) a

let sum_floats = Array.fold_left ( +. ) 0.

let geometric_sum r k =
  if k <= 0 then 0.
  else if approx_equal r 1. then float_of_int k
  else (1. -. (r ** float_of_int k)) /. (1. -. r)

let write_atomically path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    write oc;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

let fold_range lo hi ~init ~f =
  let rec go acc i = if i > hi then acc else go (f acc i) (i + 1) in
  go init lo

(* FNV-1a, the 64-bit variant: a tiny, well-distributed string hash used
   to content-address cached experiment results and to derive per-task RNG
   streams.  Stable across runs and platforms, unlike [Hashtbl.hash]. *)
let fnv1a64 s =
  (* A local ref the loop alone reads stays an unboxed register: no
     allocation per byte. *)
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001B3L
  done;
  !h

let hex_digits = "0123456789abcdef"

let hex64 h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble = Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) in
    Bytes.unsafe_set b i hex_digits.[nibble land 15]
  done;
  Bytes.unsafe_to_string b

(* Sift [v] down from the hole at [i] in the max-heap [a.(0 .. size-1)]. *)
let sift_down (a : int array) size i v =
  let hole = ref i and fin = ref false in
  while not !fin do
    let l = (2 * !hole) + 1 in
    if l >= size then fin := true
    else begin
      let c = if l + 1 < size && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > v then begin
        a.(!hole) <- a.(c);
        hole := c
      end
      else fin := true
    end
  done;
  a.(!hole) <- v

let ascending (a : int array) len =
  let rec from i = i >= len || (a.(i - 1) <= a.(i) && from (i + 1)) in
  from 1

(* Insertion sort for the short runs the simulators sort (a slot's events,
   a node's neighbours); heapsort past 32 elements keeps a dense worst case
   at O(len log len), after an O(len) check that skips input already in
   order (the class solver's canonical profiles).  Neither allocates. *)
let sort_ints (a : int array) len =
  if len < 0 || len > Array.length a then
    invalid_arg "Util.sort_ints: length out of bounds";
  if len <= 32 then
    for i = 1 to len - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else if not (ascending a len) then begin
    for i = (len / 2) - 1 downto 0 do
      sift_down a len i a.(i)
    done;
    for last = len - 1 downto 1 do
      let v = a.(last) in
      a.(last) <- a.(0);
      sift_down a last 0 v
    done
  end
