(** A sparse LU factorization of the simplex basis with eta-file
    updates, written once over the arithmetic.

    [Make (N)] factors the basis B, whose column k is the tableau column
    basic at position k, as a sequence of elementary operations: the
    column etas of L and the columns of U, chosen in Markowitz order
    (column singletons, then row singletons, then the fewest-fill
    entry among the sparsest columns, under threshold pivoting). A
    pivot that replaces the column at position r appends one
    product-form eta, the FTRAN'd entering column.

    Storage. Columns come as index and value arrays, the tableau's own.
    The active submatrix is kept by column in arrays, each column's U
    entries in a prefix and its active entries after them. Each row
    holds a count of its active entries and a list of the columns that
    have or had one there, pruned when read. Active columns sit in
    buckets by count, so a column singleton, and the sparsest columns
    for the Markowitz search, come without a scan; the threshold test
    is one pass for the largest magnitude of a column.

    Solves. FTRAN (solve B x = a) applies L's and U's column etas, then
    the updates in order. L and U are also kept by row, so BTRAN
    (solve y B = c) runs the updates in reverse as row operations and
    then U's and L's row etas as column operations, each skipping a
    step whose entry is zero: a sparse right-hand side such as e_r
    touches only the steps it reaches. Both work over a dense vector of
    length m.

    The arithmetic [N] runs the inner loops over whole vectors, so an
    instance over [float] keeps its numbers unboxed. There are two
    instances: {!Simplex_f} over [float] and {!Basis_verify} over
    {!Hydra_arith.Rat}. *)

module type NUM = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t

  val zero_at : t array -> int -> bool
  (** [zero_at a i]: a_i = 0 *)

  val magnitude_at : t array -> int -> float
  (** [magnitude_at a i]: |a_i|, for threshold pivoting *)

  val divide : t array -> int -> int -> t -> unit
  (** [divide a lo hi d]: a_k <- a_k / d for lo <= k < hi. *)

  val schur : t array -> int array -> int -> int -> t array -> t -> unit
  (** [schur v rows lo hi l x]: v_k <- v_k - l_(rows_k) * x for every
      lo <= k < hi with l_(rows_k) <> 0. *)

  val scatter : t array -> int array -> t array -> int -> int -> unit
  (** [scatter w idx vals lo hi]: w_(idx_k) <- vals_k for lo <= k < hi. *)

  val gather : t array -> int array -> t array -> unit
  (** [gather src idx dst]: dst_k <- src_(idx_k) for every k of [idx]. *)

  (** An eta spans positions lo .. hi - 1 of an index and a value
      array: its pivot p = idx_lo and divisor vals_lo, then its
      entries. A file of n etas lays them out one after the other, eta
      e from start_e to start_(e+1) - 1. *)

  val col_ops :
    rev:bool -> t array -> int array -> t array -> int array -> int -> unit
  (** [col_ops ~rev w idx vals start n] applies the file's etas 0 .. n - 1
      in order, or in reverse order when [rev], each as a column
      operation: w_p <- w_p / vals_lo, then, unless w_p is zero,
      w_(idx_k) <- w_(idx_k) - vals_k * w_p for lo < k < hi. *)

  val row_op : t array -> int array -> t array -> int -> int -> unit
  (** [row_op w idx vals lo hi]:
      w_p <- (w_p - sum_(lo < k < hi) vals_k * w_(idx_k)) / vals_lo. *)

  val eta_of : t array -> int -> int array * t array
  (** [eta_of d r]: the eta with pivot r, divisor d_r and an entry d_i
      for every i <> r with d_i <> 0. *)
end

val refactor_every : int
(** The instances refactorize after this many eta updates. *)

module Make (N : NUM) : sig
  type t

  exception Singular

  val factorize : m:int -> int array array -> N.t array array -> int array -> t
  (** [factorize ~m idx vals basis] factors the m x m basis whose column
      k has rows [idx.(basis.(k))] and values [vals.(basis.(k))], within
      an [lp.factor] span. A column's entries in one row are summed,
      and zeros dropped.
      @raise Singular when it is singular. *)

  val ftran : t -> N.t array -> unit
  (** [ftran f w] overwrites [w] (indexed by constraint row) with
      B^-1 w (indexed by basis position). *)

  val btran : t -> N.t array -> unit
  (** [btran f w] overwrites [w] (indexed by basis position) with
      w B^-1 (indexed by constraint row). *)

  val update : t -> int -> N.t array -> unit
  (** [update f r d]: the column at position [r] was replaced by the
      column a with d = B^-1 a, as {!ftran} left it ([d] is read, not
      kept). *)

  val etas : t -> int
  (** eta updates since the factorization *)
end
