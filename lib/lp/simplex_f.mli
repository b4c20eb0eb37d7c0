(** The float arithmetic of the one revised-simplex engine
    ({!Pivot.Make}).

    Runs the engine in double precision over the same tableau. Every
    sign question carries a first-order forward error bound (relative
    slack plus an absolute drift floor on basis-inverse and
    basic-solution entries, kept tight by refactorizing every 64
    pivots); an answer that does not clear its bound by a fixed gap
    factor is [Unsure], and the engine aborts ([Pivot.Aborted])
    instead of guessing.

    A warm run starts from a hint instead: the basis of an earlier,
    structurally identical LP, refactorized here. When drifted
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
    [Pivot.Aborted] or [Pivot.Timeout]). With [~warm:true], [basis] is
    a well-formed hint (one in-range column index per row): it is
    refactorized, a singular one aborts, and the dual phase repairs any
    primal infeasibility first. Shares the caller's iteration count, so
    the budget contract matches the exact solver's. Float pivots, dual
    ones included, are counted on the [simplex.float_pivots] obs
    counter. *)
