(** The serve loop: execute {!Protocol} requests against a {!Session}.

    Responses are newline-delimited: every request yields one [OK ...]
    status line (possibly followed by payload lines — answer tuples,
    stats) or a single [ERR class=... ...] line rendering the typed error
    that aborted it.  Errors are in-protocol: a failed request, including
    a budget-exhausted one, leaves the session alive. *)

val exec :
  ?budget:Obda_runtime.Budget.t ->
  Session.t -> Protocol.request -> string list
(** Execute one request, returning its response lines.  Raises
    [Obda_error] on failure (parse errors in payloads, unknown prepared
    names, budget exhaustion, inapplicable algorithms...).

    [ANSWER] and [BATCH] evaluate against a {!Session.freeze} snapshot —
    one frozen ABox revision per request — so concurrent [ASSERT]/
    [RETRACT]/[LOAD] traffic on other connections can never tear an
    answer set.  [ASSERT]/[RETRACT] apply all facts of the request
    atomically under the session lock.

    [BATCH] answers several prepared queries in one request, one after
    another, each exactly as [ANSWER] would ({!Session.answer_at} against
    the request's one snapshot, under its own [Budget.sub] of the request
    budget).  Every name is resolved before anything is evaluated, the
    response interleaves one [OK name=... answers=N] (or [boolean=...])
    header with its tuples per query in request order, and the first
    failing query fails the whole request.  Responses are byte-identical
    for any [jobs]. *)

val handle_line :
  ?budget:Obda_runtime.Budget.t ->
  ?conn:int -> Session.t -> string -> string list * bool
(** Parse and execute one input line under a [service.request] telemetry
    span (with [verb] and monotonically assigned [request] id attributes),
    mapping errors to [ERR] lines.  The request budget defaults to a fresh
    {!Obda_runtime.Budget.sub} of the session budget; the network server
    passes one with a per-request wall deadline instead, plus its
    connection id as [conn] (0 otherwise — it tags access-log lines).
    When {!Obda_obs.Histogram.recording} is armed, the request is timed
    into the per-verb registry histograms ([serve.answer.latency],
    [serve.batch.latency], [serve.mutate.latency]) along with
    [serve.answer.count] and [serve.response.bytes]; [BATCH] additionally
    times each query into [serve.batch.query.latency].  The boolean is [true] when the
    loop should stop ([QUIT]).  Blank and comment lines yield no
    response. *)

(** {1 Access log} *)

val set_access_log : ?slow_ms:float -> (string -> unit) -> unit
(** Enable the structured access log: one JSON line per parsed request is
    passed (without trailing newline) to the writer —
    [{"type":"access","id":...,"conn":...,"verb":"ANSWER","revision":...,
    "outcome":"ok","duration_ms":...,"cache":"hit"}] ([outcome] is the
    error class for failed requests; [cache] appears on [PREPARE]
    responses).  With [slow_ms], a request at least that slow writes a
    second [{"type":"slow",...}] line carrying its collected span tree;
    while armed, request spans are routed to the slow-query collector
    rather than any installed telemetry sink.  Writes are serialised under
    an internal mutex, so concurrent connections never interleave lines.
    Process-wide; last call wins. *)

val clear_access_log : unit -> unit

val access_log_error_count : unit -> int
(** Write failures absorbed so far (process-wide).  A failed write — full
    disk, closed pipe — increments this and the [serve.access_log.errors]
    counter and disables the access log; it never fails the request, the
    connection or the server. *)

(** {1 Durability} *)

val attach_wal : Session.t -> Wal.t -> unit
(** Arm durability: install the session's WAL hook (every effective
    mutation is appended — under the session lock, before its [OK] — and
    the [server.wal.*] STATS rows appear) and register the log as the
    target of the [CHECKPOINT] verb and the [--checkpoint-every] trigger.
    Call {e after} restoring recovered state into the session.
    Process-wide; last call wins. *)

val detach_wal : Session.t -> unit

val checkpoint_now : Session.t -> Wal.t -> int
(** Capture the session state under its lock and write a checkpoint
    ({!Wal.checkpoint}); returns the covered sequence number. *)

val run :
  Session.t ->
  input:(unit -> string option) ->
  output:(string -> unit) -> unit
(** Drive {!handle_line} until [input] returns [None] or a [QUIT] is
    executed. *)

val run_channels : Session.t -> in_channel -> out_channel -> unit
(** {!run} over channels, flushing after every response line — the
    engine of [obda serve].  A trailing ['\r'] is stripped from every
    input line, so CRLF clients and CRLF script fixtures are accepted. *)
