(** Column-major in-memory row storage for one relation.

    All cells are native ints (the anonymized universe is numeric).
    Generators conventionally store row number + 1 in the pk column,
    matching the tuple generator's pk-as-row-number scheme (Sec. 6). *)

type t

val create : string -> string list -> t
(** [create name columns] is an empty table. *)

val of_rows : string -> string list -> int array list -> t

val of_columns : string -> string list -> int array list -> t
(** Adopts pre-built column arrays without copying; all columns must have
    equal length. This is the bulk path used when materializing summaries. *)

val name : t -> string
val length : t -> int
val ncols : t -> int
val col_names : t -> string list

val col_pos : t -> string -> int
(** Position of a column. @raise Invalid_argument for unknown names. *)

val add_row : t -> int array -> unit
val add_rows : t -> int array -> int -> unit
(** [add_rows t row count] appends [count] copies of [row]. *)

val get : t -> row:int -> col:string -> int
val get_pos : t -> row:int -> pos:int -> int
val row : t -> int -> int array
(** Full tuple at a row index (fresh array). *)

val column : t -> string -> int array
(** Copy of a column's live prefix. *)

val column_view : t -> string -> int array
(** The column's backing array itself, not a copy: its first {!length}
    entries are the column, and it may be longer. Read it only; a write
    changes the table, and a later {!add_row} may replace it. *)

val iter_rows : t -> (int -> unit) -> unit
val reserve : t -> int -> unit
val pp : Format.formatter -> t -> unit
