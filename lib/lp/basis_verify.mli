(** The exact instance of the simplex engine ({!Pivot.Make} over
    {!Hydra_arith.Rat}) and exact verification of candidate bases.

    Private to [hydra.lp]: {!Simplex.solve} is the only caller, and it
    owns the ladder these runs are rungs of.

    The basis is held as sparse LU factors plus eta updates
    ({!Factor.Make} over [Rat]), refactorized every
    {!Factor.refactor_every} pivots to keep the eta file short.
    "Verify" means: factor the candidate basis once in
    {!Hydra_arith.Rat}, solve B x_B = b, check primal feasibility
    exactly, then resume the exact engine from those factors, pricing by
    BTRAN. A singular candidate is rejected.
    A primal-infeasible one is rejected too, unless it is a warm-start
    hint: a hint is repaired by the exact instance of the engine's dual
    phase ({!Pivot.Make.run} [~repair:true]), and rejected only when
    that phase gives up. A basis that was in fact optimal finishes with
    zero pivots; any pivots performed, dual or primal, are a
    {e repair}, counted once per verification on the
    [simplex.verify_repairs] obs counter. Exact pivots are counted on
    [simplex.pivots], [simplex.degenerate_pivots] and
    [simplex.bland_fallbacks], dual pivots also on
    [simplex.dual_pivots]. *)

open Hydra_arith

type run = {
  outcome : Pivot.outcome;
      (** never [Aborted]: exact signs are decided, and a repair that
          gives up is a rejection *)
  basis : int array;  (** the terminal basis *)
  xb : Rat.t array;  (** the basic values, row by row *)
}

val cold :
  budget:Pivot.budget ->
  Pivot.tableau ->
  int array ->
  objective:(int * Rat.t) list option ->
  int ref ->
  run
(** [cold ~budget t basis ~objective iter_count] runs both phases
    exactly from the slack/artificial start [basis], mutating it into
    the terminal basis, within an [lp.exact] span. [iter_count] counts
    pricing passes against [budget]. *)

val verify :
  ?hint:bool ->
  budget:Pivot.budget ->
  Pivot.tableau ->
  objective:(int * Rat.t) list option ->
  int ref ->
  int array ->
  run option
(** [verify ~budget t ~objective iter_count cand] factors the
    candidate basis [cand] (left unmodified; one in-range column index
    per row) and resumes the exact engine from it, within an
    [lp.verify] span; [None] when [cand] is singular or primal
    infeasible. With [~hint:true] a primal-infeasible [cand] is repaired
    by the dual phase instead, and [None] means the repair gave up. *)

module Rat_num : Factor.NUM with type t = Rat.t
(** the factorization's kernels over rationals, for white-box tests *)
