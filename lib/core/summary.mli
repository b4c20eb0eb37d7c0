(** Database summary generator (Sec. 5): instantiate view solutions,
    repair referential integrity across views, extract per-relation
    summaries.

    The summary is the paper's headline artifact: a set of
    (value-combination, NumTuples) rows per relation whose size depends
    only on the workload, never on the data scale, and from which
    databases of arbitrary size regenerate statically or dynamically. *)

open Hydra_rel

type view_summary = {
  vs_rel : string;
  vs_attrs : string array;  (** qualified attribute names *)
  mutable vs_rows : (int array * int) list;  (** instantiated values, count *)
}

type relation_summary = {
  rs_rel : string;
  rs_cols : string array;  (** fk columns then own non-key attributes *)
  rs_rows : (int array * int) array;  (** column values, NumTuples *)
  rs_total : int;  (** total tuple count including repair additions *)
}

type t = {
  schema : Schema.t;
  views : view_summary list;
  relations : relation_summary list;
  extra_tuples : (string * int) list;
      (** integrity-repair additions per relation — the quantity of
          Fig. 11; bounded by summary size, independent of data scale *)
}

exception Summary_error of string

type instantiation = [ `Low_corner | `Midpoint ]
(** Where a region's cardinality is placed inside its representative box.
    The paper uses [`Low_corner] (Sec. 5.2), arguing it minimizes
    integrity-repair additions; [`Midpoint] exists for the ablation
    benchmark quantifying that claim. *)

val instantiate_point : instantiation -> Box.t -> int array
(** The concrete point a region's tuples are placed at. *)

val instantiate_view : ?policy:instantiation -> string -> Solution.t -> view_summary

val repair_integrity :
  Schema.t -> (string * view_summary) list -> (string * int) list
(** Walk relations dependents-first and append every missing borrowed
    value combination to its target view with NumTuples = 1 (Sec. 5.3).
    Returns additions per relation. Mutates the view summaries. *)

val extract_relation :
  Schema.t -> (string * view_summary) list -> string -> relation_summary
(** Sec. 5.4: per row, foreign keys become the pk of the first tuple of
    the matching row-group in the target view (cumulative NumTuples + 1). *)

val of_view_solutions :
  ?policy:instantiation -> Schema.t -> (string * Solution.t) list -> t
(** The full Sec. 5 sequence over all views (in topological order). *)

val relation : t -> string -> relation_summary
val total_rows : t -> int
(** Tuples the summary describes (the regenerated database size). *)

val summary_rows : t -> int
(** Rows in the summary itself (the artifact's size). *)

type corruption = {
  sum_path : string;
  sum_line : int;  (** 1-based line of the offending content, 0 = whole file *)
  sum_reason : string;
}

exception Corrupt of corruption
(** A summary file that cannot be trusted: truncated block, garbage
    row, digest-trailer mismatch. Typed so callers (the CLI maps it to
    its own exit code) can distinguish a damaged artifact from a
    missing or unreadable one. *)

val save : string -> t -> unit
(** Text serialization — the artifact shipped between sites. Persists
    the relation summaries, the view summaries, and the per-relation
    RI-repair tallies ([extra_tuples]). Written atomically (temp file +
    rename via [Durable_io]) with a digest trailer, so a crash mid-save
    leaves the previous file intact and silent corruption is detected
    at load. *)

val load : string -> Schema.t -> t
(** Exact inverse of {!save}: a loaded summary round-trips every field,
    including [views] and [extra_tuples] (both were silently dropped
    before). Files written by older versions — without views, extras,
    or the digest trailer — still load, with the missing fields empty.
    A file with neither a block nor a trailer holds no summary.
    @raise Corrupt on truncated or garbled content (never a raw
    [End_of_file]/[Failure]), and at line 0 on a file without a
    summary. *)

val pp : Format.formatter -> t -> unit
