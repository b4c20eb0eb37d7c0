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
  v_cache : string;  (** cache disposition word, [""] when cache off *)
  v_journal : string;
      (** how the [--state-dir] store served the view: ["replayed"] /
          ["solved"], [""] when no state dir *)
  v_seconds : float;
}

type run = {
  r_subcommand : string;
  r_config_digest : string;  (** full hex digest from {!config_digest} *)
  r_spec_digest : string;  (** digest of the spec file bytes *)
  r_jobs : int;
  r_exit : int;
  r_seconds : float;
  r_views : view list;
  r_journal : (string * int) list;
      (** state-dir aggregate counts (e.g. [replayed]/[solved]), [[]] when
          no state dir was used *)
  r_metrics : Json.t;  (** final [Obs.metrics_json ()] snapshot *)
  r_events : Obs.event list;
  r_folded : string;  (** folded stacks, [""] when no collector ran *)
}

val config_digest : subcommand:string -> string list -> string
(** Hex digest over the subcommand name and the given configuration
    parts (spec digest, relevant flags). Deliberately excludes
    inputs that vary per host (e.g. the resolved jobs count). *)

val record : dir:string -> run -> string
(** Archive the run; creates [dir] as needed and returns the run id. *)

type entry = {
  e_id : string;
  e_seq : int;
  e_path : string;
  e_doc : Json.t;
}

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

val metric_kvs : Json.t -> (string * float) list
(** Flatten a run document's stored metrics snapshot for diffing:
    counters and gauges under their own names, histograms as
    [name.count]/[name.sum]/[name.p50]/[name.p95]/[name.p99], span
    aggregates as [span.name.count]/[span.name.seconds]. Sorted by
    name; allocation words are excluded, mirroring [Obs.flatten]. *)
