(** A database instance: a schema plus one tuple source per relation.

    A source is either a stored table or a virtual, generated-on-demand
    source — the paper's [datagen] scan property (Sec. 6). When a relation
    is bound to a generated source, the executor never touches stored
    rows for it. *)

open Hydra_rel

type source =
  | Stored of Table.t
  | Generated of generated

and generated = {
  gen_pk : string;  (** the pk column: row [r] reads [r + 1] *)
  gen_starts : int array;
      (** run [g] covers rows [gen_starts.(g)] to [gen_starts.(g + 1) - 1];
          the last entry is the row count *)
  gen_cols : (string * int array) list;
      (** every other column, with its value in each run *)
}
(** A generated relation is a sequence of runs of equal rows, the row-groups
    of its summary: row [r] takes every column's value from the run
    covering [r], and its pk is [r + 1]. *)

type t

val create : Schema.t -> t
val schema : t -> Schema.t
val bind : t -> string -> source -> unit
val bind_table : t -> Table.t -> unit

val source : t -> string -> source
(** @raise Invalid_argument when the relation is not bound. *)

val nrows : t -> string -> int

val locate : int array -> int -> int ref -> int -> int
(** [locate starts nruns cursor row] is the run covering [row]: the
    greatest [g < nruns] with [starts.(g) <= row]. [cursor] holds the
    last answer, so ascending rows stay on a run or step to the next
    without a search; any other row binary-searches. *)

val reader : t -> string -> string -> int -> int
(** [reader db rel col] is a row-index-to-value accessor closure, the
    tuple-at-a-time access of the Fig. 15 aggregate. For generated
    relations the closure keeps a run cursor (ascending row ids
    advance it without a search), so obtain a fresh reader per
    traversal. *)

val gather : t -> string -> string -> int array -> int array
(** [gather db rel col rows] is [col]'s value at each row id of [rows],
    in order: the column-at-a-time access of the executor's kernels. A
    stored column is read by index. A generated column is filled run by
    run: one search per run entered, and the following row ids that
    fall in the same run take its value with no call; row ids in any
    order are read correctly, ascending ones fastest. *)

val relation_names : t -> string list
