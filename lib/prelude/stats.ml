type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let add_many t xs = Array.iter (add t) xs

let count t = t.n

let mean t = if t.n = 0 then 0. else t.mean

let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)

let population_variance t = if t.n = 0 then 0. else t.m2 /. float_of_int t.n

let stddev t = sqrt (variance t)

let min t = t.min

let max t = t.max

let sum t = t.mean *. float_of_int t.n

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let nf = float_of_int n in
    let mean = a.mean +. (delta *. float_of_int b.n /. nf) in
    let m2 =
      a.m2 +. b.m2 +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. nf)
    in
    { n; mean; m2; min = Float.min a.min b.min; max = Float.max a.max b.max }
  end

let confidence_interval_95 t =
  if t.n < 2 then 0. else 1.96 *. stddev t /. sqrt (float_of_int t.n)

let of_array xs =
  let t = create () in
  add_many t xs;
  t

let mean_of xs = mean (of_array xs)

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.

let jain_fairness xs =
  let s = Array.fold_left ( +. ) 0. xs in
  let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  if s2 = 0. then 1.
  else s *. s /. (float_of_int (Array.length xs) *. s2)
