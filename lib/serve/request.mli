(** Typed requests of the oracle service's JSONL protocol.

    One request per line, one JSON object per request.  The envelope:

    {v
    {"id": <any JSON>, "op": "<name>", ..., "deadline_ms": <number>?}
    v}

    [id] is echoed verbatim in the reply (default [null]); [deadline_ms],
    when present, is a per-request service deadline — a request still
    queued when it expires is answered with an error instead of being
    served late.  Operations:

    - [{"op": "tau", "n": N, "w": W}] — (τ, p) of the uniform profile;
    - [{"op": "welfare", "n": N, "w": W}] — per-node payoff and n·u;
    - [{"op": "payoff", "profile": [w1, …]}] — per-node payoff rates;
      entries are bare CW windows (the CW-only shorthand) or full
      strategy objects [{"cw": W, "aifs": A?, "txop": K?, "rate": R?}],
      freely mixed;
    - [{"op": "ne", "n": N}] — the Theorem-2 NE window range and the
      refined W_c*;
    - [{"op": "batch", "requests": [ … ]}] — leaf requests answered in
      order in one reply (batches may not nest).

    Parsing never raises: malformed lines come back as [Error reason],
    which the server turns into an error reply.  So do lines over the
    size limits below: an over-limit field is refused before any oracle
    call, so it allocates nothing beyond the parsed line. *)

type op =
  | Ne of { n : int }
  | Payoff of { profile : Macgame.Profile.t }
  | Welfare of { n : int; w : int }
  | Tau of { n : int; w : int }
  | Batch of t list

and t = {
  id : Telemetry.Jsonx.t;  (** echoed in the reply; [Null] when absent *)
  op : op;
  deadline_ms : float option;
}

(** {2 Size limits}

    Each is far above every request the tests, the conformance suite and
    the benchmark send, and far below what exhausts the service.  Sized on
    the analytic oracle: the NE set at [n = 10 000] took 28 ms, a uniform
    solve at [n = 10{^6}] 0.15 s and a profile of 10 000 distinct windows
    37 ms; [tau] still answered at [w = 2{^40}].  Unbounded, a [tau] at
    [n = w = 10{^9}] allocated until the kernel killed the service. *)

val max_n : int
(** 10 000: the largest [n] of [tau], [welfare] and [ne]. *)

val max_window : int
(** 2{^20}: the largest [w], and the largest [cw] in a payoff profile. *)

val max_profile : int
(** 10 000: the most entries a payoff profile may have. *)

val max_batch : int
(** 1 024: the most members a batch may have. *)

val of_line : string -> (t, string) result
(** Parse one request line.  [Error reason] on malformed JSON, missing,
    ill-typed or over-limit fields, unknown ops, or nested batches — never
    raises.

    The line is read once, in place: fields the protocol names are
    decoded as they stream past (the first of a repeated key counts),
    other values are checked and dropped, and only the id and strategy
    objects become {!Telemetry.Jsonx.t} trees.  Malformed JSON anywhere
    in the line outranks every other refusal, and the others come in a
    fixed order whatever the order of the keys: [deadline_ms], then
    [op], then the op's fields ([n] before [w]), then batch members in
    order. *)

val decode : string -> (t, Telemetry.Jsonx.t * string) result
(** [of_line], with the id an error reply echoes: the line's first
    top-level ["id"] when the line is a JSON object, else [Null]. *)
