(** One revised simplex, written once over an abstract arithmetic.

    Every decision that steers the pivot path lives here: round-robin
    pricing with the Bland's-rule fallback after 40 consecutive
    degenerate pivots, the ratio test and its smallest-basis-index
    tie-break, phase I, the artificial drive-out, phase II, the dual
    phase that repairs a primal-infeasible warm start, and the
    iteration/deadline budget. The arithmetic [F] holds the numbers,
    runs the kernels (FTRAN and BTRAN over the sparse LU factors of the
    basis, {!Factor}), and answers each sign question the engine asks as
    [Pos | Neg | Zero | Unsure]. There are two instances: exact
    rationals ({!Basis_verify}), which never answer [Unsure], and doubles
    with a forward error bound on every decision ({!Simplex_f}), which
    answer [Unsure] when the bound is not cleared; the engine then
    aborts.

    Path identity: the path depends on nothing but the answers, so a
    float run whose answers agree with the exact ones takes the exact
    run's pivot path and ends on its terminal basis by construction. A
    confident float answer that is wrong only hands exact verification
    ({!Basis_verify}) a basis to repair. QSopt_ex builds its exact LP
    solver the same way: one code base instantiated per number type. *)

open Hydra_arith

(** The problem in computational form: minimize c.x s.t. A x = b,
    x >= 0, b >= 0. Columns are sparse: index and value arrays, one
    entry per row, every value nonzero. Instances keep the basis as
    sparse LU factors plus eta updates ({!Factor}), never an explicit
    inverse. *)
type tableau = {
  m : int;  (** rows *)
  n : int;  (** columns, incl. slacks and artificials *)
  cidx : int array array;  (** col -> its rows *)
  cval : Rat.t array array;  (** col -> its coefficients, as [cidx] *)
  b : Rat.t array;
  art_first : int;  (** first artificial column index; [n] if none *)
}

type budget = { deadline : float option; max_iters : int option }
(** Deadline (a {!Hydra_obs.Mclock.now} instant, so wall-clock
    adjustments can neither trigger nor defer it) and iteration ceiling,
    shared by both phases. The budget is only consulted when another
    pivot would be needed, so an optimal basis is always reported as
    such and [Timeout] means real work was cut short. *)

type sign = Pos | Neg | Zero | Unsure

(** What an instance may count on its own obs counters. *)
type event = Pivot | Degenerate | Bland_fallback

exception Undecided
(** Raised on an [Unsure] answer and caught by {!Make.run}, which then
    reports [Aborted]; an instance may raise it from a kernel too (the
    float refactorization of a singular basis). *)

module type ARITH = sig
  type t
  (** Per-solve state: basis factors, basic solution, the current
      phase's costs, and the [y]/[d] vectors of the current iteration. *)

  val set_costs : t -> Rat.t array -> unit
  (** Install a phase's cost vector, one entry per tableau column. *)

  val price : t -> int array -> unit
  (** [price s basis]: the simplex multipliers y = c_B . B^-1, by one
      BTRAN unless the instance carried y through the last {!pivot}. *)

  val reduced_cost : t -> int -> sign
  (** Sign of c_j - y.A_j, after [price]; the instance keeps the value
      for [dual_ratio]. *)

  val column : t -> int -> unit
  (** d = B^-1 . A_j for column [j], one FTRAN. *)

  val column_sign : t -> int -> sign
  (** Sign of d_i, after [column]. *)

  val ratio : t -> int -> int -> sign
  (** [ratio s i l] for d_i, d_l > 0: sign of xb_i/d_i - xb_l/d_l. *)

  val basic_sign : t -> int -> sign
  (** Sign of the basic value xb_i. *)

  val compare_basic : t -> int -> int -> sign
  (** [compare_basic s i l]: sign of xb_i - xb_l. *)

  val row_entry : t -> int -> int -> sign
  (** [row_entry s r j]: sign of alpha_rj = (B^-1 . A_j)_r, which the
      instance keeps for [dual_ratio]; row r of B^-1 is one BTRAN, kept
      until the next pivot. *)

  val dual_ratio : t -> int -> int -> sign
  (** [dual_ratio s j k] for alpha_rj, alpha_rk < 0 (after [row_entry]
      on both, and [reduced_cost] on both after [price]): sign of
      d_j/(-alpha_rj) - d_k/(-alpha_rk), where d is the reduced cost. *)

  val artificial_sum : t -> int array -> art_first:int -> sign
  (** Sign of the summed basic values of the artificial columns. *)

  val pivot : t -> int -> int -> degenerate:bool -> unit
  (** [pivot s r q]: bring the current column [d], that of column [q],
      into the basis at row [r]: step xb by xb_r/d_r, which is zero when
      [degenerate], and append [d] to the factors as an eta. An instance
      may carry y through the pivot by q's reduced cost.
      The engine has already written the entering index into the
      basis. *)

  val count : event -> unit
end

type outcome =
  | Optimal  (** the basis is phase-complete (optimal when costed) *)
  | Infeasible  (** phase I ended with artificials at a positive level *)
  | Unbounded
  | Timeout  (** budget exhausted while further pivots were needed *)
  | Aborted
      (** some sign decision was [Unsure], or the dual phase found no
          column to enter *)

module Make (F : ARITH) : sig
  val run :
    ?pivots:int ref ->
    ?repair:bool ->
    budget:budget ->
    tableau ->
    F.t ->
    int array ->
    objective:(int * Rat.t) list option ->
    int ref ->
    outcome
  (** [run ~budget t s basis ~objective iter_count] runs phase I,
      the artificial drive-out and phase II from the primal-feasible
      state [s] over [basis], mutating both; [basis] holds the terminal
      basis on return. From a basis that is already optimal this
      performs no pivots. [iter_count] counts pricing passes against the
      budget; [pivots], when given, counts basis changes. Objective
      variables must be structural columns ({!Simplex.solve} checks
      them).

      With [~repair:true] the state may be primal infeasible: a dual
      phase first pivots until every basic value is nonnegative, under
      warm-start costs (zero on the start basis, one elsewhere, so the
      start is dual feasible). It leaves on the most negative basic
      value, enters by the minimum ratio d_j/(-alpha_rj) over the
      structural and slack columns (artificials never enter), breaks
      ties on the smallest index, and switches to Bland's rule after 40
      consecutive zero-ratio pivots. With no column to enter it gives
      up with [Aborted]; it never reports [Infeasible] itself. Each
      dual pivot counts on the [simplex.dual_pivots] obs counter as
      well as the instance's own pivot counter. *)
end
