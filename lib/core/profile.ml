type t = Dcf.Strategy_space.t array

let uniform_strategy ~n s =
  if n < 1 then invalid_arg "Profile.uniform: need n >= 1";
  (match Dcf.Strategy_space.validate s with
  | Ok () -> ()
  | Error e -> invalid_arg ("Profile.uniform: " ^ e));
  Array.make n s

let uniform ~n ~w = uniform_strategy ~n (Dcf.Strategy_space.of_cw w)

let with_deviant_strategy ~n ~w ~dev =
  if n < 2 then invalid_arg "Profile.with_deviant: need n >= 2";
  (match Dcf.Strategy_space.validate dev with
  | Ok () -> ()
  | Error e -> invalid_arg ("Profile.with_deviant: " ^ e));
  let p = uniform ~n ~w in
  p.(0) <- dev;
  p

let with_deviant ~n ~w ~w_dev =
  with_deviant_strategy ~n ~w ~dev:(Dcf.Strategy_space.of_cw w_dev)

let of_cws cws = Array.map Dcf.Strategy_space.of_cw cws
let cws t = Array.map (fun (s : Dcf.Strategy_space.t) -> s.cw) t

let is_uniform t =
  Array.length t > 0
  && Array.for_all (fun s -> Dcf.Strategy_space.equal s t.(0)) t

let is_degenerate t = Array.for_all Dcf.Strategy_space.is_degenerate t

let min_window t =
  if Array.length t = 0 then invalid_arg "Profile.min_window: empty profile";
  Array.fold_left
    (fun acc (s : Dcf.Strategy_space.t) -> Stdlib.min acc s.cw)
    t.(0).Dcf.Strategy_space.cw t

(* The canonical form is the multiset: sorted by the strategy-space total
   order, so any permutation of the same profile canonicalizes to the same
   array — the basis of the oracle's memo/store keys.  The merge sort is
   the faster of the two on these short arrays; strategies it treats as
   equal are identical once validated (finite, positive rates), so the
   result does not depend on the algorithm. *)
let canonical t =
  let sorted = Array.copy t in
  Array.stable_sort Dcf.Strategy_space.compare sorted;
  sorted

let validate ~cw_max t =
  if Array.length t = 0 then Error "empty profile"
  else
    Array.fold_left
      (fun acc s ->
        match acc with
        | Error _ -> acc
        | Ok () -> Dcf.Strategy_space.validate ~cw_max s)
      (Ok ()) t

let equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Dcf.Strategy_space.equal a b

(* FNV-style multiply-xor of one strategy's four knobs into [h].  Rates
   that compare equal (±0, any NaN) mix alike, so the hashes below agree
   with [equal]. *)
let mix h x = (h lxor x) * 0x100000001B3

let mix_strategy h (s : Dcf.Strategy_space.t) =
  let r = s.rate in
  let rate_bits =
    if r = 0. || Float.is_nan r then 0
    else Int64.to_int (Int64.bits_of_float r)
  in
  mix (mix (mix (mix h s.cw) s.aifs) s.txop_frames) rate_bits

(* The high half folded into the low bits that hash tables index by. *)
let finish h = (h lxor (h lsr 32)) land max_int

let hash (t : t) =
  let h = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    h := mix_strategy !h (Array.unsafe_get t i)
  done;
  finish !h

let hash_uniform ~n s = finish (mix_strategy n s)

let pp ppf t =
  if is_uniform t && Dcf.Strategy_space.is_degenerate t.(0) then
    Format.fprintf ppf "%dx%d" (Array.length t) t.(0).Dcf.Strategy_space.cw
  else if is_uniform t then
    Format.fprintf ppf "%dx%a" (Array.length t) Dcf.Strategy_space.pp t.(0)
  else begin
    Format.pp_print_char ppf '[';
    Array.iteri
      (fun i s ->
        if i > 0 then Format.pp_print_string ppf "; ";
        Dcf.Strategy_space.pp ppf s)
      t;
    Format.pp_print_char ppf ']'
  end

let to_json t =
  Telemetry.Jsonx.List (Array.to_list (Array.map Dcf.Strategy_space.to_json t))

let of_json json =
  match json with
  | Telemetry.Jsonx.List (_ :: _ as items) ->
      let rec decode acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | item :: rest -> (
            match Dcf.Strategy_space.of_json item with
            | Ok s -> decode (s :: acc) rest
            | Error e -> Error e)
      in
      decode [] items
  | _ -> Error "profile must be a non-empty list"
