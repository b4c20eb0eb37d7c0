(** Run telemetry ledger: one JSON document per instrumented run,
    archived under an [--obs-dir] so runs can be listed, compared and
    regression-gated after the process is gone.

    Run ids are wall-time-free and monotonic:
    [run-<seq>-<digest8>] where [seq] is one more than the highest
    sequence already present in the directory (corrupt files keep the
    sequence they occupy) and [digest8] is the first 8 hex digits of the
    run's {!config_digest} — so re-running the same spec in the same
    directory yields a deterministic id, which the cram suite relies
    on.

    Records are written atomically through [hydra.durable] with a
    digest trailer; {!runs} tolerates corrupt or torn records — they
    are skipped and reported, never raised. *)

type view = {
  v_rel : string;
  v_status : string;  (** ["exact"] / ["relaxed"] / ["fallback"] *)
  v_fingerprint : string;  (** [Formulate.fingerprint], [""] if unknown *)
  v_tier : string;
      (** the source of the view's outcome: ["state"] (replayed from
          the [--state-dir] store), ["cache"] (replayed from the solve
          cache) or ["solve"]. Records written before the tier load it
          from their [journal]/[cache] dispositions. *)
  v_seconds : float;
  v_lp_vars : int;
  v_lp_constraints : int;
  v_attempts : int;  (** pool attempts; more than 1 means retries *)
  v_detail : string list;
      (** the fallback reason, or the violated CCs, as text *)
  v_metrics : (string * float) list;
      (** the view's registry delta: solver counters and stage spans *)
}

type relation = { s_rel : string; s_rows : int; s_tuples : int; s_repair : int }
(** A relation of the written summary: rows, the tuples they describe,
    and how many of those are integrity-repair tuples. *)

type run = {
  r_subcommand : string;
  r_config_digest : string;  (** full hex digest from {!config_digest} *)
  r_spec_digest : string;  (** digest of the spec file bytes *)
  r_jobs : int;
  r_exit : int;
  r_seconds : float;
  r_views : view list;
  r_notes : string list;  (** the pipeline's cross-view notes *)
  r_summary : relation list;
  r_paths : (string * string) list;
      (** the run's artifacts: [summary], [cache], [state], [audit] *)
  r_metrics : Obs.snapshot;  (** the registry at the end of the run *)
  r_events : Obs.event list;
  r_spans : Obs.span list;
      (** every span the collector held, [[]] when none ran (and for
          records written before spans were archived) *)
}
(** The one record of a run. Every telemetry export — the ledger file,
    the endpoint's routes and every {!format} — is a rendering of it. *)

val current : ?spans:Obs.span list -> ?seconds:float -> unit -> run
(** The live registry as a record with no run outcome yet: metrics
    snapshot and event ring now, the given spans, [?seconds] elapsed
    (default 0), empty identity fields and views. *)

val config_digest : subcommand:string -> string list -> string
(** Hex digest over the subcommand name and the given configuration
    parts (spec digest, relevant flags). Deliberately excludes
    inputs that vary per host (e.g. the resolved jobs count). *)

val run_json : id:string -> seq:int -> run -> Json.t
(** The record as archived: a [hydra-ledger/1] document, and the one
    encoder of a run report (the [json] export, [/runs/ID]).
    Reading it back ({!runs}, {!find}) is exact. Fields added after the
    first records (spans, the per-view profile, notes, summary, paths)
    load empty when absent. *)

type entry = {
  e_id : string;
  e_seq : int;
  e_path : string;  (** [""] for a run not archived *)
  e_run : run;
}

val live : run -> entry
(** A run that is not archived: id [current], sequence 0. *)

val record : dir:string -> run -> entry
(** Archive the run; creates [dir] as needed. *)

type listing = {
  l_entries : entry list;  (** valid records, ascending sequence *)
  l_corrupt : (string * string) list;  (** (filename, reason), skipped *)
}

val runs : dir:string -> listing

val find : dir:string -> string -> (entry, string) result
(** Resolve a run reference: a bare decimal sequence number, a full run
    id, or an unambiguous id prefix. [Error] carries a message naming
    the reference (unknown or ambiguous). *)

val prune :
  dir:string -> ?before:int -> ?keep:int -> unit -> string list * string list
(** Delete runs by age and/or count: first every run with sequence
    [< before], then the oldest survivors beyond the newest [keep].
    Corrupt record files are always deleted. Returns
    [(removed run ids, removed corrupt filenames)]. *)

(** {2 Renderings} *)

val rungs : run -> int * int * int
(** Views per rung: [(exact, relaxed, fallback)]. *)

val metric_kvs : run -> (string * float) list
(** Flat metrics for diffing: {!Obs.flatten} plus
    [name.p50]/[name.p95]/[name.p99] per histogram, sorted by name. *)

type format =
  | Text
      (** the text report: the [run ID] header and identity fields,
          per-view outcomes with their LP size, attempts, reason and
          profile, the notes, summary facts and paths, the metrics
          table, populated histogram percentiles, the event tail, and
          last the resume story (how many views each tier served, with
          the stores from [r_paths] and the cache's traffic) *)
  | Json
      (** the entry's {!run_json}, pretty-printed and newline-terminated:
          the body of an archived record (before its digest trailer) *)
  | Metrics  (** pretty {!Obs.snapshot_json}, newline-terminated *)
  | Folded  (** {!Flame.folded_string} of the spans *)
  | Chrome  (** {!Trace_event} JSON of the spans, newline-terminated *)
  | Prometheus  (** {!Prom.render} of the metrics *)
(** Every rendering of a run record, by one name each. *)

val formats : (string * format) list
(** The names: [text], [json], [metrics], [folded], [chrome],
    [prometheus]. *)

val export_of_string : string -> (format * string, string) result
(** Parse [FORMAT=FILE] (the value of [--export] and of an [export=]
    token in [HYDRA_OBS]); [Error] names what is wrong. *)

val render : ?events:int -> format -> entry -> string
(** The one renderer of a run record. [?events] (default 10) bounds the
    event tail of {!Text}. *)
