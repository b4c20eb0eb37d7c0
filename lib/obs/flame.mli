(** Folded-stack (flamegraph-compatible) export of the span tree.

    A {!collector} is a sink that retains every finished span; once a
    run completes, {!folded} reconstructs root-to-leaf name paths from
    the parent links and emits one [path value] line per distinct path,
    where [path] is the span names joined with [';'] and [value] is the
    path's aggregated {e self} time in integer microseconds (duration
    minus the durations of direct children, clamped at zero). The
    output is sorted by path, so it is stable for a given span tree and
    feeds directly into [flamegraph.pl] / [inferno] / speedscope. *)

type collector

val create : unit -> collector

val sink : collector -> Obs.sink
(** A sink that records every finished span into the collector. *)

val spans : collector -> Obs.span list
(** Collected spans, in completion order. Thread-safe. *)

val folded : Obs.span list -> (string * int) list
(** Folded stacks for an explicit span list: [(path, self_time_us)]
    pairs aggregated over same-path spans, sorted by path. Spans whose
    parent is absent from the list are treated as roots. *)

val folded_string : Obs.span list -> string
(** {!folded} rendered one ["path value\n"] line per entry. *)
