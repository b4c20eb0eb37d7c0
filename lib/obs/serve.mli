(** Live telemetry endpoint: the run ledger and the live metric
    registry over HTTP ({!Hydra_net}).

    Every route that describes a run resolves its reference to one
    {!Ledger.run} and renders it; the process's own run ([current],
    which the caller supplies: the live registry while the run
    executes, its finished record afterwards) and archived runs go
    through the same code.

    Routes (GET only; everything else is 405):
    - [/healthz] — liveness probe, ["ok\n"].
    - [/metrics] — Prometheus text ({!Ledger.Prometheus}) of the live
      run, else of the latest archived run (404 when none).
    - [/progress] — heartbeat JSON of the same run: the {!Progress}
      counters, the rendered heartbeat line, and views/sec + ETA when
      estimable.
    - [/runs] — ledger listing JSON (id, seq, subcommand, jobs, exit,
      view rungs; corrupt files listed separately). Wall-clock fields
      are deliberately left to the per-run document so the listing is
      byte-stable for tests.
    - [/runs/<ref>] — one run document ({!Ledger.run_json} plus a
      [live] flag), resolved like [hydra obs show] (sequence number,
      full id, or unique prefix); live mode also serves
      [/runs/current].
    - [/runs/<ref>/trace] — Chrome [traceEvents] JSON
      ({!Ledger.Chrome}), byte-equal to the run's [--chrome-out] file.

    Unknown paths and unknown run references return JSON 404 bodies,
    never a backtrace.

    Purity: the handler only ever reads snapshots — it never writes a
    metric — so a run scraped mid-flight produces byte-identical
    summaries/tuples to an unserved run, at any [--jobs]. (The resource
    sampler usually started alongside the server does write gauges, but
    gauges are never consulted by the pipeline; the guarantee is gated
    in [bench serve] and the qcheck purity battery.) *)

type t

val handler :
  ?obs_dir:string ->
  ?current:(unit -> Ledger.run) ->
  unit ->
  Hydra_net.Http.request ->
  Hydra_net.Http.response
(** The route table, exposed separately from the socket machinery so
    tests can exercise it without a listener. [?current] (default none)
    is live mode: it adds the [current] run, read through the thunk on
    every request, which [/metrics] and [/progress] then describe;
    [?obs_dir] backs the archived runs. *)

val start :
  ?obs_dir:string ->
  ?current:(unit -> Ledger.run) ->
  port:int ->
  unit ->
  (t, string) result
(** Bind [127.0.0.1:port] (0 = ephemeral) and serve {!handler}.
    [Error msg] when the port cannot be bound. *)

val port : t -> int
(** The bound port (resolves port [0] requests). *)

val stop : t -> unit
(** Stop the listener and join its domains. Idempotent. *)

val port_of_spec : string -> int option
(** Parse a [serve=PORT] token out of an [HYDRA_OBS]-style
    comma-separated spec; [None] when absent or not a valid port
    ([0..65535]; 0 = ephemeral). *)

val port_from_env : unit -> int option
(** {!port_of_spec} applied to [HYDRA_OBS]. *)
