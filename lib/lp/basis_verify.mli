(** The exact instance of the simplex engine ({!Pivot.Make} over
    {!Hydra_arith.Rat}) and exact verification of candidate bases.

    Private to [hydra.lp]: {!Simplex.solve} is the only caller, and it
    owns the ladder these runs are rungs of.

    "Verify" means: reconstruct the basis inverse in
    {!Hydra_arith.Rat}, check primal feasibility exactly (singular or
    infeasible candidates are rejected), then resume the exact engine
    from that state. A basis that was in fact optimal finishes with zero
    pivots; any pivots performed are a {e repair}, counted on the
    [simplex.verify_repairs] obs counter. Exact pivots are counted on
    [simplex.pivots], [simplex.degenerate_pivots] and
    [simplex.bland_fallbacks]. *)

open Hydra_arith

type run = {
  outcome : Pivot.outcome;  (** never [Aborted]: exact signs are decided *)
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
    the terminal basis. [iter_count] counts pricing passes against
    [budget]. *)

val verify :
  budget:Pivot.budget ->
  Pivot.tableau ->
  objective:(int * Rat.t) list option ->
  int ref ->
  int array ->
  run option
(** [verify ~budget t ~objective iter_count cand] factorizes the
    candidate basis [cand] (left unmodified) and resumes the exact
    engine from it; [None] when [cand] is malformed, singular or primal
    infeasible. *)
