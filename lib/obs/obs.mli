(** Observability core: nested spans, a process-global metric registry,
    a ring-buffer event log, and pluggable sinks.

    Everything routes through one global [enabled] switch. When tracing
    is disabled (the default) every instrumentation call short-circuits
    on a single flag test — no clock reads, no allocation — so
    instrumented hot paths are free in production, and enabling tracing
    never changes what the instrumented code computes (it only watches).

    The only always-on facility is the event ring buffer: incidents such
    as degraded views or uncovered relations are recorded even when
    tracing is off, so diagnostics survive without any setup cost.

    Every entry point is domain-safe: metric updates accumulate in
    per-domain shards (plain writes, no locks on the hot path) that are
    merged commutatively at snapshot time, the span stack is
    domain-local, and the event ring and sink delivery serialize under
    mutexes. Counter totals and histogram masses observed at quiescent
    points (after a parallel region has joined) are exact and equal to
    what a sequential run would have produced; gauges merge across
    domains by maximum (every current gauge is a high-water mark).
    {!reset} and {!snapshot} may run concurrently with instrumented code
    without crashing, but only quiescent snapshots are exact. *)

(* ---- attribute values ---- *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attrs = (string * value) list

type level = Debug | Info | Warn | Error

val level_name : level -> string

val level_of_name : string -> level option
(** Inverse of {!level_name}; [None] for unknown names. *)

val value_json : value -> Json.t
(** Attribute value as JSON (used by the trace/ledger exporters). *)

(* ---- global switch ---- *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(* ---- spans ---- *)

type span = {
  sp_id : int;
  sp_parent : int;  (** [-1] for a root span *)
  sp_name : string;
  sp_start : float;  (** {!Mclock} seconds *)
  sp_end : float;
  sp_attrs : attrs;
}

val with_span : ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span. Disabled mode calls the thunk directly.
    The span is closed (and delivered to sinks) even if the thunk
    raises. Spans nest: the innermost open span is the parent. *)

val span_attr : string -> value -> unit
(** Attach an attribute to the innermost open span; no-op when disabled
    or outside any span. *)

(* ---- metrics registry ---- *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get-or-create by name; the handle stays valid across {!reset}. *)

val incr : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_max : gauge -> float -> unit
(** Keep the maximum of all observations (e.g. deepest B&B node). *)

val histogram : string -> histogram
val observe : histogram -> float -> unit

val bucket_of : float -> int
(** Log-scaled bucket index: bucket [0] holds values [<= 2^-20] (and all
    non-positive values), bucket [i] holds [(2^(i-21), 2^(i-20)]], and the
    last bucket collects overflow. Exposed for tests. *)

val bucket_upper : int -> float
(** Inclusive upper bound of a bucket; [infinity] for the last. *)

val num_buckets : int

(* ---- events (always-on ring buffer) ---- *)

type event = {
  ev_time : float;
  ev_level : level;
  ev_msg : string;
  ev_attrs : attrs;
}

val event : ?level:level -> ?attrs:attrs -> string -> unit
(** Record into the ring buffer (always); forward to sinks when enabled. *)

val recent_events : unit -> event list
(** Ring-buffer contents, oldest first (capacity 256). *)

(* ---- sinks ---- *)

type sink = {
  sink_span : span -> unit;
  sink_event : event -> unit;
  sink_close : unit -> unit;
}

val span_json : span -> Json.t
(** [{id, parent, name, start, end, attrs}], as the JSONL sink and the
    run ledger write a span. *)

val event_json : event -> Json.t
(** [{time, level, msg, attrs}]. *)

val add_sink : sink -> unit

val text_sink : out_channel -> sink
(** Human-readable lines, e.g. [obs] span pipeline.view 12.3ms rel=item. *)

val jsonl_sink : string -> sink
(** One JSON object per finished span / event, appended to the file. *)

val set_sink_level : level -> unit
(** Minimum level an event must have to be forwarded to sinks (default
    [Debug], i.e. everything). The always-on ring buffer is unaffected —
    suppressed events are still recorded and visible through
    {!recent_events}; spans are unaffected too. *)

val sink_level : unit -> level

(* ---- snapshots ---- *)

type snapshot

val snapshot : unit -> snapshot
(** Point-in-time copy of the whole registry, including per-span-name
    duration and allocation aggregates, merged across every domain that
    ever contributed. *)

val local_snapshot : unit -> snapshot
(** Like {!snapshot} but restricted to the calling domain's own shard —
    the metric delta between two [local_snapshot]s brackets exactly the
    work this domain did in between, regardless of what other domains
    were running. This is how the pipeline attributes solver counters to
    individual views under parallel regeneration (each view runs whole
    on one domain). On a program that never spawned domains it equals
    {!snapshot}. *)

val snapshot_counters : snapshot -> (string * int) list
(** Counter totals by name, sorted. *)

val snapshot_gauges : snapshot -> (string * float) list
(** Gauge values by name (cross-domain maximum), sorted. *)

val snapshot_hists : snapshot -> (string * (int * float * int array)) list
(** Histograms by name as [(count, sum, buckets)] ({!bucket_of}
    layout), sorted. *)

val snapshot_spans : snapshot -> (string * (int * float * float * float)) list
(** Span aggregates by name as
    [(count, seconds, minor_words, major_words)], sorted. *)

val flatten : snapshot -> (string * float) list
(** Flat metric view: counters and gauges under their own names,
    histograms as [name.count]/[name.sum], span aggregates as
    [span.name.count]/[span.name.seconds]. Sorted by name. Span
    allocation words are deliberately excluded (they are GC-schedule
    dependent, so they would break cross-jobs metric determinism); read
    them through {!span_alloc} or {!snapshot_json}. *)

val percentile_of_buckets : int array -> float -> float
(** [percentile_of_buckets buckets q] estimates the [q]-quantile
    ([0..1]) of the observations summarized by a log-histogram bucket
    array ({!bucket_of} layout): rank-based, linearly interpolated
    inside the covering bucket, [0] when empty, and the overflow
    bucket's lower bound when the rank lands there. Deterministic in the
    bucket counts. *)

val percentiles : snapshot -> (string * (float * float * float)) list
(** Per-histogram [(p50, p95, p99)] estimates, in snapshot (name)
    order. *)

val span_alloc : snapshot -> (string * (float * float)) list
(** Per-span-name [(minor_words, major_words)] allocated inside the
    span (summed over all closings, nested spans double-counted like
    seconds), in snapshot order. *)

val diff : snapshot -> snapshot -> (string * float) list
(** [diff before after]: flattened after-minus-before, non-zero entries
    only — the metric delta attributable to the enclosed work. *)

val snapshot_json : snapshot -> Json.t
(** Counters, gauges, histograms (count, sum, p50/p95/p99 and the
    non-empty buckets keyed by their [%g] upper bound, ["+inf"] for the
    overflow bucket) and span aggregates with allocation words. *)

val snapshot_of_json : Json.t -> (snapshot, string) result
(** The exact inverse of {!snapshot_json}: percentiles are recomputed
    from the buckets, and bucket keys are matched against the encoder's
    own strings. *)

(* ---- lifecycle ---- *)

val reset : unit -> unit
(** Zero every registered metric, span aggregate and the event ring.
    Handles returned by {!counter}/{!gauge}/{!histogram} stay valid. *)

val spec_tokens : string -> (string * string option) list
(** Split an [HYDRA_OBS]-style spec into its comma-separated tokens:
    [name=VALUE] as [(name, Some VALUE)] (the value may hold further
    [=]), a bare [name] as [(name, None)]; blank tokens are dropped. *)

val finish : unit -> unit
(** Flush and close all sinks. Idempotent; safe from [at_exit]. *)
