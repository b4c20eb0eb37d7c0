(** Chrome trace-event JSON export of the span tree.

    Renders finished spans as complete events ([ph:"X"], microsecond
    [ts]/[dur] relative to the earliest span) in the Trace Event Format
    understood by Perfetto, [chrome://tracing] and speedscope — the
    timeline view complementing {!Flame}'s aggregated folded stacks.

    Spans carry no domain id, so lanes ([tid]) are reconstructed from
    the span forest: each span is assigned to its root ancestor (spans
    whose parent is absent are their own roots, as in {!Flame.folded}),
    and root trees are packed into lanes by greedy interval scheduling
    in [(start, id)] order — concurrent trees (distinct domains) land in
    distinct lanes, sequential trees share lane 1. The output is a pure
    function of the span list, insensitive to completion order. *)

val to_json : Obs.span list -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one event
    per span, sorted by [(ts, id)]. Event [args] carry the span id,
    parent id and attributes. *)

val to_string : Obs.span list -> string
