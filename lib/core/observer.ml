type t =
  | Perfect
  | Noisy of { rng : Prelude.Rng.t; rel_stddev : float }
  | Sampling of { rng : Prelude.Rng.t; samples : int }

let perfect = Perfect

let noisy ~rng ~rel_stddev =
  if rel_stddev < 0. then invalid_arg "Observer.noisy: negative stddev";
  Noisy { rng; rel_stddev }

let sampling ~rng ~samples_per_stage =
  if samples_per_stage < 1 then
    invalid_arg "Observer.sampling: need at least one sample per stage";
  Sampling { rng; samples = samples_per_stage }

let clamp_window w = if w < 1 then 1 else w

let observe t ~me cws =
  match t with
  | Perfect -> Array.copy cws
  | Noisy { rng; rel_stddev } ->
      Array.mapi
        (fun j w ->
          if j = me then w
          else begin
            let noise =
              Prelude.Rng.normal rng ~mean:0. ~stddev:(rel_stddev *. float_of_int w)
            in
            clamp_window (int_of_float (Float.round (float_of_int w +. noise)))
          end)
        cws
  | Sampling { rng; samples } ->
      Array.mapi
        (fun j w ->
          if j = me then w
          else begin
            let total = ref 0 in
            for _ = 1 to samples do
              total := !total + Prelude.Rng.int rng w
            done;
            let mean = float_of_int !total /. float_of_int samples in
            clamp_window (int_of_float (Float.round ((2. *. mean) +. 1.)))
          end)
        cws

let estimate_error_stddev ~w ~samples =
  if w < 1 then invalid_arg "Observer.estimate_error_stddev: window >= 1";
  if samples < 1 then invalid_arg "Observer.estimate_error_stddev: samples >= 1";
  (* Backoff draws are uniform on {0..W−1}: variance (W²−1)/12; the estimator
     doubles the mean, so its stddev is 2·σ/√k. *)
  let wf = float_of_int w in
  2. *. sqrt (((wf *. wf) -. 1.) /. 12. /. float_of_int samples)

(* {2 Multi-knob estimators}

   Widening the strategy space to (CW, AIFS, TXOP, rate) widens what an
   observer must measure.  AIFS rides on the same idle-slot counting as
   the window estimator: the idle gap before a neighbour's transmission
   is aifs + b with b uniform on {0..W−1}, so subtracting the known
   backoff mean isolates the deviation.  TXOP needs no estimator at all —
   burst lengths are deterministic — only coverage: the observer must
   catch one burst of the cheating access pattern. *)

let aifs_estimate ~rng ~w ~aifs ~samples =
  if w < 1 then invalid_arg "Observer.aifs_estimate: window >= 1";
  if aifs < 0 then invalid_arg "Observer.aifs_estimate: aifs >= 0";
  if samples < 1 then invalid_arg "Observer.aifs_estimate: samples >= 1";
  let total = ref 0 in
  for _ = 1 to samples do
    total := !total + aifs + Prelude.Rng.int rng w
  done;
  (float_of_int !total /. float_of_int samples)
  -. (float_of_int (w - 1) /. 2.)

let aifs_estimate_stddev ~w ~samples =
  if w < 1 then invalid_arg "Observer.aifs_estimate_stddev: window >= 1";
  if samples < 1 then invalid_arg "Observer.aifs_estimate_stddev: samples >= 1";
  (* Only the backoff term is random: variance (W²−1)/12 per access, and
     the known mean is subtracted rather than doubled, so the error decays
     as σ_backoff/√k (half the window estimator's rate constant). *)
  let wf = float_of_int w in
  sqrt (((wf *. wf) -. 1.) /. 12. /. float_of_int samples)

let txop_longest_burst ~rng ~txop ~p_observe ~accesses =
  if txop < 1 then invalid_arg "Observer.txop_longest_burst: txop >= 1";
  if p_observe < 0. || p_observe > 1. then
    invalid_arg "Observer.txop_longest_burst: p_observe in [0, 1]";
  if accesses < 1 then invalid_arg "Observer.txop_longest_burst: accesses >= 1";
  let seen = ref 0 in
  for _ = 1 to accesses do
    if Prelude.Rng.float rng 1. < p_observe then seen := Stdlib.max !seen txop
  done;
  !seen
