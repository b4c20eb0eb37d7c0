(** Volumetric-accuracy accounting.

    HYDRA's fidelity claim is that regenerated data reproduces the
    operator output cardinalities harvested from the client's annotated
    query plans. This module is the ledger for that claim: during an
    audited execution, every plan operator (seq scan, dynamic-generation
    scan, filter, PK–FK join, group-by, aggregate) appends one {!record}
    comparing the cardinality the CC annotation {e expected} with the
    cardinality the engine {e observed}, and the per-relation roll-up
    {!by_relation} reconciles exactly with [Validate.by_relation] over
    the same CC set.

    Recording is observation-only ("observation is pure"): an audited
    execution returns bit-identical results to an unaudited one, and
    auditing never mutates engine state. Trails are mutex-guarded, so an
    audited plan may run inside the domain pool; the optional [Obs]
    mirroring (relative-error histograms, audit counters) engages only
    while [Obs.enabled ()]. *)

type op_kind = Scan | Datagen_scan | Filter | Join | Group_by | Aggregate

val op_name : op_kind -> string
(** Stable lowercase name ([scan], [datagen_scan], ...). *)

type record = {
  r_query : string;  (** label of the audited execution, e.g. the CC *)
  r_op : op_kind;
  r_rels : string list;  (** relations under the operator, sorted *)
  r_key : string;
      (** identity of the operator edge's CC expression (relations +
          predicate + grouping, no cardinality) — used to deduplicate
          edges shared by several audited plans *)
  r_expected : int option;
      (** annotated cardinality; [None] when no CC covers this edge *)
  r_observed : int;
}

val rel_error : expected:int -> observed:int -> float
(** Signed relative error [(observed - expected) / max 1 expected] —
    the same convention as [Validate]. *)

val record_error : record -> float option
(** {!rel_error} of an annotated record; [None] when unannotated. *)

(* ---- expectations: what the CC annotation predicts per plan edge ---- *)

type expectation = {
  exp_key : string;  (** [""] marks "no expectation" placeholders *)
  exp_rels : string list;
  exp_card : int option;
  exp_children : expectation list;
}
(** A mirror of a plan tree carrying, per operator edge, the CC-derived
    expected cardinality (if any CC annotates that edge). Built by
    [Workload.audit_expectation]. *)

val no_expectation : expectation
(** Placeholder for unannotated execution; recording against it is a
    no-op, which is how plain [Executor.exec] stays audit-free. *)

(* ---- trails ---- *)

type trail

val create : unit -> trail

val record : trail -> record -> unit
(** Append (thread-safe). While [Obs.enabled ()] the record is mirrored
    into the registry: histograms [audit.relerr.op.<op>] and
    [audit.relerr.rel.<r1,r2,...>] observe the absolute relative error,
    and counters [audit.ops] / [audit.ops.annotated] / [audit.ops.exact]
    advance. *)

val records : trail -> record list
(** In recording order. *)

(* ---- roll-ups ---- *)

type group_stat = {
  gs_rels : string list;
  gs_ccs : int;  (** distinct annotated edges over this relation set *)
  gs_exact : int;
  gs_max_abs_error : float;
}

val by_relation : record list -> group_stat list
(** Annotated records, deduplicated by {!record.r_key} (first
    occurrence wins — re-audited edges observe the same database, so
    duplicates agree), grouped by relation set in first-appearance
    order. Field-for-field comparable with [Validate.by_relation] run
    over the same CCs and database. *)

val by_operator : record list -> (op_kind * group_stat) list
(** The same roll-up keyed by operator kind, in {!op_kind} declaration
    order; kinds with no records are omitted. [gs_rels] is empty. *)

val summary_stats : record list -> int * int * int * float
(** [(ops, annotated, exact, max_abs_error)] over the deduplicated
    records: total distinct edges, annotated among them, exact among
    the annotated, and the worst absolute relative error. *)

val report_json :
  ?reconciles:bool ->
  ?incidents:Hydra_obs.Obs.event list ->
  record list ->
  Hydra_obs.Json.t
(** The machine-readable audit report: summary stats, per-operator and
    per-relation roll-ups, every record, and (when given) the
    [reconciles]-with-[Validate] verdict plus degraded-view incidents
    (events carrying a ["view"] attr; their [view]/[rung] attrs are
    emitted as structured fields). Contains no timings or other
    machine-dependent values, so it is byte-identical across [--jobs]
    for a deterministic execution. *)

val write_report :
  ?reconciles:bool ->
  ?incidents:Hydra_obs.Obs.event list ->
  string ->
  record list ->
  unit
(** Pretty-print {!report_json} to a file, trailing newline included,
    through {!Hydra_durable.Durable_io.write_atomic} (no fsync): a kill
    mid-write leaves the previous file, never a torn one. *)
