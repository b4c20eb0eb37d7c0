(** The float arithmetic of the one revised-simplex engine
    ({!Pivot.Make}).

    Runs the engine in double precision over the same tableau. Every
    sign question carries a first-order forward error bound (relative
    slack plus an absolute drift floor on basis-inverse and
    basic-solution entries, kept tight by refactorizing every 64
    pivots); an answer that does not clear its bound by a fixed gap
    factor is [Unsure], and the engine aborts ([Pivot.Aborted])
    instead of guessing.

    This module never reports a solution itself; its output is only a
    candidate basis, which {!Basis_verify} checks in exact arithmetic. *)

open Hydra_arith

val run :
  budget:Pivot.budget ->
  Pivot.tableau ->
  int array ->
  objective:(int * Rat.t) list option ->
  int ref ->
  Pivot.outcome
(** [run ~budget t basis ~objective iter_count] runs the float
    engine from the artificial/slack start basis, which it mutates into
    the candidate terminal basis (unless the outcome is
    [Pivot.Aborted] or [Pivot.Timeout]). Shares the caller's
    iteration count, so the budget contract matches the exact solver's.
    Float pivots are counted on the [simplex.float_pivots] obs
    counter. *)
