(* The SplitMix64 counter lives unboxed in an 8-byte buffer: a
   [mutable state : int64] record field would box a fresh Int64, and take
   the write barrier, on every draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function: advance by the golden gamma, then apply the
   variant-13 mix of the counter.  Inlined into the drawing functions
   below so the 64-bit intermediates stay in registers. *)
let[@inline] bits64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  (* The mixed output seeds the child; mixing prevents correlated lattices
     between parent and child streams. *)
  of_state (bits64 t)

let of_key ~seed key =
  (* A stream derived from (seed, key) alone: equal pairs give equal
     streams regardless of task submission order or worker interleaving,
     which is what makes parallel sweeps bit-identical to serial ones.
     The FNV hash of the key is xored into a gamma-scaled seed; SplitMix's
     output mixing takes care of any residual structure. *)
  of_state
    (Int64.logxor
       (Int64.mul (Int64.of_int seed) golden_gamma)
       (Util.fnv1a64 key))

(* 62 uniform bits as a non-negative OCaml int. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let max = (1 lsl 62) - 1 in
  let limit = max - (max mod bound) in
  let v = ref (bits t) in
  while !v >= limit do
    v := bits t
  done;
  !v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 uniform bits: the draw behind [float] and, redrawn while zero,
   behind [exponential] and [normal]'s radius. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

(* Inlined into [bernoulli] so that the float stays unboxed between the
   draw and its use. *)
let[@inline] float t x =
  (* 53 random bits scaled to [0,1), as in the stdlib. *)
  x *. (float_of_int (bits53 t) *. 0x1p-53)

let float_in t lo hi = lo +. float t (hi -. lo)


let bernoulli t p = float t 1.0 < p

let bits53_nonzero t =
  (* A loop, not a per-call closure, so nothing allocates. *)
  let b = ref (bits53 t) in
  while !b = 0 do
    b := bits53 t
  done;
  !b

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log (float_of_int (bits53_nonzero t) *. 0x1p-53) /. rate

let normal t ~mean ~stddev =
  let u1 = float_of_int (bits53_nonzero t) *. 0x1p-53 in
  let u2 = float t 1.0 in
  let r = sqrt (-2. *. log u1) in
  mean +. (stddev *. r *. cos (2. *. Float.pi *. u2))

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
