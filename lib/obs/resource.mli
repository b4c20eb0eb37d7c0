(** Background process-resource sampler.

    Feeds four gauges into the metric registry so [--progress]'s
    [metrics.prom], the text report, metrics snapshots and ledger
    records carry a memory/GC profile of the run:

    - [process.rss_bytes] — resident set size from
      [/proc/self/status] ([0] where procfs is unavailable, so the
      gauge name set stays platform-stable);
    - [gc.minor_words], [gc.major_words] — cumulative allocation
      counters ([Gc.minor_words] for the minor gauge — the live
      allocation pointer — since [Gc.quick_stat]'s counters only
      reflect completed collections of the calling domain);
    - [gc.heap_words] — major-heap size as of the last collection
      ([0] until the calling domain completes one).

    Gauges merge across domains by maximum, so every value is a
    high-water mark for the run. All four are resource metrics: they
    vary run to run by construction and are exempt from
    [hydra obs diff --default-threshold] (the [_bytes]/[_words]
    suffixes are on the default exempt list).

    The sampler is purely observational — it writes gauges, which are
    never consulted by the pipeline — so a run with it attached
    produces byte-identical outputs to one without. *)

type t

val sample : unit -> unit
(** Take one sample on the calling domain (no-op while the registry is
    disabled). *)

val start : ?period_s:float -> unit -> t
(** Sample once synchronously — so the gauges exist from the start of
    the run, deterministically — then keep sampling every [period_s]
    seconds (default 1.0, clamped to at least 10ms) on a background
    domain. *)

val stop : t -> unit
(** Join the sampler domain and take one final sample so the gauges
    reflect end-of-run state. Idempotent. *)

val rss_bytes : unit -> float option
(** Resident set size parsed from [/proc/self/status] ([VmRSS]);
    [None] where unavailable. Exposed for tests. *)
