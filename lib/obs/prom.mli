(** Prometheus text-exposition rendering of an {!Obs.snapshot}.

    Metric names are prefixed [hydra_] and sanitized to the Prometheus
    charset ([.]/[-] become [_]). Counters render as [counter], gauges
    as [gauge], log-histograms as cumulative [histogram] series
    ([_bucket{le="..."}] per non-empty bucket plus the mandatory
    [le="+Inf"], [_sum], [_count]), and span aggregates as two counter
    families keyed by a [span] label
    ([hydra_span_seconds_total{span="..."}] /
    [hydra_span_count_total{span="..."}]). Output is sorted by name, so
    it is byte-stable for a given snapshot. *)

val render : Obs.snapshot -> string

val write : ?fsync:bool -> string -> Obs.snapshot -> unit
(** Atomically replace [path] with {!render} of the snapshot
    (temp + rename via [hydra.durable]), so a reader such as
    node_exporter's textfile collector never reads a torn file. [?fsync] defaults to [false]: the file is a live export that
    the next tick rewrites, not a durable artifact. *)
