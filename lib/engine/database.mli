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
  gen_rows : int;  (** virtual row count *)
  gen_col : string -> int -> int;  (** column name -> row index -> value *)
}

type t

val create : Schema.t -> t
val schema : t -> Schema.t
val bind : t -> string -> source -> unit
val bind_table : t -> Table.t -> unit

val source : t -> string -> source
(** @raise Invalid_argument when the relation is not bound. *)

val nrows : t -> string -> int

val reader : t -> string -> string -> int -> int
(** [reader db rel col] is a row-index-to-value accessor closure, the
    tuple-at-a-time access of the Fig. 15 aggregate. For generated
    relations the closure keeps a scan cursor (ascending row ids advance
    it without a search), so obtain a fresh reader per traversal. *)

val gather : t -> string -> string -> int array -> int array
(** [gather db rel col rows] is [col]'s value at each row id of [rows],
    in order, read through one fresh {!reader}: the column-at-a-time
    access of the executor's kernels. *)

val relation_names : t -> string list
