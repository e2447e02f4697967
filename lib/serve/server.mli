(** The oracle service: JSONL requests in, JSONL replies out.

    A server wraps one {!Macgame.Oracle.t} (and, through it, an optional
    persistent {!Store.t}) behind the line protocol of {!Request} and
    {!Reply}.  Every reply carries the tier that answered — in-process
    memo, persistent store, or cold solve — so a client (and the
    saturation bench) can see exactly how warm the service is.

    {2 Guarantees}

    - {b No crash on bad input}: malformed JSON, unknown ops, ill-typed
      fields, invalid arguments and expired deadlines all produce error
      replies; [handle_line] never raises.
    - {b Bit-faithful answers}: a served [tau]/[welfare]/[payoff] answer
      is the oracle's own evaluation, so memo- and store-tier replies are
      bit-identical to direct {!Macgame.Oracle} calls (the conformance
      suite's serving checks pin this down).
    - {b Derived rows persist too}: NE answers (window range, refined
      W_c*, its welfare) are memoized per [n] and written through to the
      store under the oracle's identity prefix, so a restarted service
      answers NE queries from the store without re-running the searches.

    {2 Telemetry}

    Counters ["serve.requests"], ["serve.errors"],
    ["serve.tier.memo"/"store"/"cold"] (one per leaf answered), histogram
    ["serve.latency_ms"] (per-leaf service time) on the server's
    registry, and a ["serve.request"] flight-recorder span per request and
    batch member (payload: op 0 ne, 1 payoff, 2 welfare, 3 tau, 4 batch;
    and its size: n, profile length or member count). *)

type t

val create : ?telemetry:Telemetry.Registry.t -> Macgame.Oracle.t -> t
(** Wrap an oracle.  Persistence is the oracle's affair: back it with a
    store at {!Macgame.Oracle.create} time.  Each batch envelope opens
    one {!Macgame.Oracle.batch} context, which warm-starts its members'
    cold solves. *)

val handle_line : t -> string -> string option
(** Serve one request line, returning the reply line (no newline).
    [None] for blank lines.  Never raises. *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serve line-by-line until EOF, flushing each reply — the [--stdin]
    transport. *)

val serve_socket :
  t -> path:string -> ?max_inflight:int -> ?max_connections:int ->
  ?ready:(unit -> unit) -> unit -> unit
(** Listen on a Unix-domain socket at [path] (replacing a stale socket
    file, and nothing else), call [ready] once the socket is bound, and
    serve each connection on its own thread; at most [max_inflight]
    (default 8) requests are evaluated concurrently, the rest queue.
    With [max_connections] the accept loop ends after that many
    connections and the call returns once they drain (how the tests and
    the bench bound a run); without it, serves forever.  The socket file
    is removed on exit.

    @raise Invalid_argument when [path] holds a file that is not a
    socket, or cannot be bound (a missing directory, no permission). *)
