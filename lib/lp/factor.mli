(** A sparse LU factorization of the simplex basis with eta-file
    updates, written once over the arithmetic.

    [Make (N)] factors the basis B, whose column k is the tableau column
    basic at position k, as a sequence of elementary operations: the
    column etas of L and the columns of U, chosen in Markowitz order
    (column singletons, then row singletons, then the fewest-fill
    entry among the sparsest columns, under threshold pivoting). A
    pivot that replaces the column at position r appends one
    product-form eta, the FTRAN'd entering column. FTRAN (solve
    B x = a) applies them in order and BTRAN (solve y B = c) in
    reverse, each over a dense work vector of length m.

    The arithmetic [N] runs the inner loops over whole vectors, so an
    instance over [float] keeps its numbers unboxed. There are two
    instances: {!Simplex_f} over [float] and {!Basis_verify} over
    {!Hydra_arith.Rat}. *)

module type NUM = sig
  type t

  val zero : t
  val one : t
  val is_zero : t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t

  val magnitude : t -> float
  (** |q|, for threshold pivoting *)

  val col_op : t array -> int -> int array -> t array -> unit
  (** [col_op w p idx vals]: w_p <- w_p / vals_0, then
      w_(idx_k) <- w_(idx_k) - vals_(k+1) * w_p for every k. *)

  val row_op : t array -> int -> int array -> t array -> unit
  (** [row_op w p idx vals]:
      w_p <- (w_p - sum_k vals_(k+1) * w_(idx_k)) / vals_0. *)

  val permute : t array -> int array -> t array -> unit
  (** [permute w perm scratch]: w_i <- w_(perm_i) for every i. *)

  val eta_of : t array -> int -> int array * t array
  (** [eta_of d r]: the positions i <> r with d_i <> 0, and the values
      d_r followed by those d_i. *)
end

val refactor_every : int
(** The instances refactorize after this many eta updates. *)

module Make (N : NUM) : sig
  type t

  exception Singular

  val factorize : m:int -> (int * N.t) list array -> int array -> t
  (** [factorize ~m cols basis] factors the m x m basis whose column k
      is [cols.(basis.(k))], within an [lp.factor] span.
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
