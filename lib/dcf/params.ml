type access_mode = Basic | Rts_cts

let pp_access_mode ppf = function
  | Basic -> Format.pp_print_string ppf "basic"
  | Rts_cts -> Format.pp_print_string ppf "RTS/CTS"

type t = {
  payload_bits : int;
  mac_header_bits : int;
  phy_header_bits : int;
  ack_bits : int;
  rts_bits : int;
  cts_bits : int;
  bit_rate : float;
  sigma : float;
  sifs : float;
  difs : float;
  gain : float;
  cost : float;
  stage_duration : float;
  discount : float;
  max_backoff_stage : int;
  cw_max : int;
  mode : access_mode;
}

let default =
  {
    payload_bits = 8184;
    mac_header_bits = 272;
    phy_header_bits = 128;
    ack_bits = 112;
    rts_bits = 160;
    cts_bits = 112;
    bit_rate = 1e6;
    sigma = 50e-6;
    sifs = 28e-6;
    difs = 128e-6;
    gain = 1.0;
    cost = 0.01;
    stage_duration = 10.0;
    discount = 0.9999;
    max_backoff_stage = 5;
    cw_max = 4096;
    mode = Basic;
  }

let with_mode mode t = { t with mode }

let rts_cts = with_mode Rts_cts default

let validate t =
  let check cond msg rest = if cond then rest () else Error msg in
  check (t.payload_bits > 0) "payload_bits must be positive" @@ fun () ->
  check (t.mac_header_bits >= 0 && t.phy_header_bits >= 0)
    "header sizes must be non-negative"
  @@ fun () ->
  check (t.ack_bits > 0 && t.rts_bits > 0 && t.cts_bits > 0)
    "control frame sizes must be positive"
  @@ fun () ->
  check (t.bit_rate > 0.) "bit_rate must be positive" @@ fun () ->
  check (t.sigma > 0.) "sigma must be positive" @@ fun () ->
  check (t.sifs >= 0. && t.difs >= 0.) "IFS durations must be non-negative"
  @@ fun () ->
  check (t.gain > t.cost) "gain must exceed cost (g > e)" @@ fun () ->
  check (t.cost >= 0.) "cost must be non-negative" @@ fun () ->
  check (t.stage_duration > 0.) "stage_duration must be positive" @@ fun () ->
  check (t.discount > 0. && t.discount < 1.) "discount must be in (0, 1)"
  @@ fun () ->
  check (t.max_backoff_stage >= 0) "max_backoff_stage must be non-negative"
  @@ fun () ->
  check (t.cw_max >= 1) "cw_max must be at least 1" @@ fun () ->
  (* The largest window, cw_max·2^m, must be an int: past it [w lsl m]
     overflows, and the per-stage loops (Newton's step, the expected
     backoff) run through every one of m stages. *)
  check
    (t.max_backoff_stage < Sys.int_size
    && t.cw_max <= max_int asr t.max_backoff_stage)
    "max_backoff_stage too large: cw_max * 2^m must fit in an int"
  @@ fun () -> Ok ()

let pp ppf t =
  let f fmt = Format.fprintf ppf fmt in
  f "@[<v>";
  f "payload          %d bits@," t.payload_bits;
  f "MAC header       %d bits@," t.mac_header_bits;
  f "PHY header       %d bits@," t.phy_header_bits;
  f "ACK              %d bits + PHY header@," t.ack_bits;
  f "RTS              %d bits + PHY header@," t.rts_bits;
  f "CTS              %d bits + PHY header@," t.cts_bits;
  f "channel bit rate %.0f bit/s@," t.bit_rate;
  f "sigma            %.0f us@," (t.sigma *. 1e6);
  f "SIFS             %.0f us@," (t.sifs *. 1e6);
  f "DIFS             %.0f us@," (t.difs *. 1e6);
  f "gain g           %g@," t.gain;
  f "cost e           %g@," t.cost;
  f "stage T          %g s@," t.stage_duration;
  f "discount delta   %g@," t.discount;
  f "max stage m      %d@," t.max_backoff_stage;
  f "W_max            %d@," t.cw_max;
  f "access mode      %a" pp_access_mode t.mode;
  f "@]"
