(** Live progress exporter: a background domain that periodically
    renders the current metrics snapshot as a Prometheus-text file
    (atomic rewrite through {!Prom.write}, so scrapers never see a torn
    file) and emits a one-line heartbeat — views done/total with the
    exact/relaxed/fallback split, cache hits, supervisor retries — to a
    channel (normally [stderr]).

    The ticker is purely observational: it only ever reads snapshots
    (it never touches the metric registry as a writer), so a run with
    the exporter on produces byte-identical outputs to one without. *)

type t

val start :
  ?heartbeat:out_channel -> ?prom_out:string -> period_s:float -> unit -> t
(** Spawn the ticker domain; every [period_s] seconds it writes
    [?prom_out] (if given) and a heartbeat line to [?heartbeat] (if
    given). [period_s] is clamped to at least 10ms. *)

val stop : t -> unit
(** Stop the ticker, join its domain, and emit one final tick so the
    exported file and the last heartbeat reflect the completed run.
    Idempotent. *)

type stats = {
  hb_done : int;
  hb_total : int;
  hb_exact : int;
  hb_relaxed : int;
  hb_fallback : int;
  hb_cache_hits : int;
  hb_retries : int;
}
(** The progress counters behind a heartbeat, decoupled from their
    source so archived runs (ledger metric lists) render through the
    same code path as live snapshots. *)

val stats_of_snapshot : Obs.snapshot -> stats

val rate_eta : ?elapsed_s:float -> stats -> float option * float option
(** [(views_per_sec, eta_seconds)]. Only estimable mid-run: requires
    positive [elapsed_s] and [0 < done < total]; [(None, None)]
    otherwise — in particular on the final heartbeat of a completed
    run, which therefore renders identically to pre-rate versions. *)

val render : ?elapsed_s:float -> stats -> string

val heartbeat_line : ?elapsed_s:float -> Obs.snapshot -> string
(** The heartbeat rendering, exposed for tests:
    [[hydra] views D/T exact E relaxed R fallback F | cache hits H | retries N],
    with [ | X.XX views/s | eta Y.Ys] appended when {!rate_eta} has an
    estimate. *)

val period_of_string : string -> (float, string) result
(** Parse a tick period for [--progress] and a [progress=] token in
    [HYDRA_OBS]: a positive, finite number of seconds (decimal fractions
    allowed). *)
