(** Linear-program model builder.

    A problem is a set of non-negative variables and sparse linear
    constraints with exact rational coefficients. HYDRA only needs
    feasibility (any solution of the cardinality-constraint system), so
    there is no objective beyond the phase-I artificial objective used
    internally by the solver. *)

open Hydra_arith

type relation = Eq | Le | Ge

type constr = {
  terms : (int * Rat.t) list;  (** [(variable index, coefficient)] pairs *)
  rel : relation;
  rhs : Rat.t;
}

type t

val create : unit -> t

val add_var : t -> unit -> int
(** Registers a fresh non-negative variable and returns its index. *)

val add_vars : t -> int -> int
(** [add_vars lp n] registers [n] fresh variables, returning the index of
    the first; the block is contiguous. *)

val num_vars : t -> int
val num_constraints : t -> int

val add_constraint : t -> (int * Rat.t) list -> relation -> Rat.t -> unit
(** @raise Invalid_argument when a term references an unknown variable. *)

val add_eq : t -> (int * Rat.t) list -> Rat.t -> unit
val add_eq_count : t -> int list -> int -> unit
(** [add_eq_count lp vars k] adds [sum vars = k] with unit coefficients,
    the shape of every cardinality constraint. *)

val constraints : t -> constr list
(** In insertion order. *)

val check : t -> Rat.t array -> bool
(** [check lp x] tells whether [x] satisfies every constraint and every
    non-negativity bound exactly. *)

val residuals : t -> Rat.t array -> Rat.t list
(** Signed violation of each constraint under [x] (zero when satisfied). *)

val vector_to_string : Bigint.t array -> string
(** Compact text form of an integer solution vector — length-prefixed,
    space-separated decimals — the payload of persisted solve-cache
    entries. *)

val vector_of_string : string -> Bigint.t array option
(** Inverse of {!vector_to_string}. [None] on any malformation
    (wrong length prefix, non-numeric component, trailing garbage):
    corrupt cache entries must read as misses, never raise. *)

val render : t -> full:Buffer.t -> structure:Buffer.t -> unit
(** [render lp ~full ~structure] appends the system's canonical text to
    [full], and the same text with every constraint right-hand side
    written as [_] to [structure], in one pass over the constraints. The
    text is a header line ["LP with N vars, M constraints"], then one
    line per constraint in insertion order, [x3 + 2*x5 <= 7] (a unit
    coefficient is left out). Two systems render identically into
    [structure] exactly when they differ only in right-hand sides — the
    near-miss shape that basis warm-starting keys on. Both texts are the
    bodies of the solve cache's content addresses, so their bytes are
    frozen. *)
