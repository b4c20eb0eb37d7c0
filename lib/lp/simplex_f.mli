(** The float arithmetic of the one revised-simplex engine
    ({!Pivot.Make}).

    Runs the engine in double precision over the same tableau, with the
    basis held as sparse LU factors plus eta updates
    ({!Factor.Make}): a column is one FTRAN, and the duals are carried
    through each primal pivot by the inverse row its bound update
    computes, so pricing runs a BTRAN only after new costs, a
    refactorization, a warm start or a dual-phase pivot, or to ask a
    reduced cost again that the carried duals left [Unsure]. Every
    sign question carries a first-order forward error bound: a relative
    slack plus an absolute drift floor, both scaled by per-row upper
    bounds on the basis inverse's entries that each pivot carries
    forward through its eta, and kept tight by refactorizing every
    {!Factor.refactor_every} pivots. An answer that does not clear its
    bound by a fixed gap factor is [Unsure], and the engine aborts
    ([Pivot.Aborted]) instead of guessing.

    A warm run starts from a hint instead: the basis of an earlier,
    structurally identical LP, factored here. When drifted
    right-hand sides leave it primal infeasible, the engine's dual phase
    restores feasibility before the primal phases run.

    This module never reports a solution itself; its output is only a
    candidate basis, which {!Basis_verify} checks in exact arithmetic. *)

open Hydra_arith

val run :
  ?warm:bool ->
  budget:Pivot.budget ->
  Pivot.tableau ->
  int array ->
  objective:(int * Rat.t) list option ->
  int ref ->
  Pivot.outcome
(** [run ~budget t basis ~objective iter_count] runs the float
    engine from the artificial/slack start basis, which it mutates into
    the candidate terminal basis (unless the outcome is
    [Pivot.Aborted] or [Pivot.Timeout]), within an [lp.float] span.
    With [~warm:true], [basis] is a well-formed hint (one in-range
    column index per row): it is factored, a singular one aborts, and
    the dual phase repairs any primal infeasibility first. Shares the
    caller's iteration count, so the budget contract matches the exact
    solver's. Float pivots, dual ones included, are counted on the
    [simplex.float_pivots] obs counter, and degenerate pivots and Bland
    fallbacks on [simplex.degenerate_pivots] and
    [simplex.bland_fallbacks], the exact instance's counters. *)

(** {2 The instance, for white-box tests} *)

module Float_num : Factor.NUM with type t = float
(** the factorization's kernels over unboxed float arrays *)

module Float_arith : sig
  include Pivot.ARITH

  val create : Pivot.tableau -> int array -> t
  (** the state over [basis], which must be the slack/artificial start
      (B = I) unless {!warm} follows *)

  val warm : t -> unit
  (** take the state's basis as a hint: basic values and the inverse's
      row bounds from its factors *)

  val column_entry : t -> int -> float * float
  (** d_i and its error bound, after [column] *)

  val price_entry : t -> int -> float * float
  (** y_i and its error bound, after [price] *)
end
