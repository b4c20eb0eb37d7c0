(** Exact verification / repair of candidate simplex bases.

    The float-first degradation ladder, each rung falling through to the
    next:

    + verify a cached warm-start basis (when given);
    + run the float instance of the simplex engine ({!Simplex_f}) and
      verify its terminal basis;
    + the all-exact path ({!Simplex.run_phases} from the artificial
      start).

    "Verify" means: reconstruct the basis inverse in {!Hydra_arith.Rat},
    check primal feasibility exactly (singular or infeasible candidates
    are rejected to the next rung), then resume the exact instance of
    the same engine from that state. A basis that was in fact optimal finishes
    with zero pivots; any pivots performed are a {e repair}, counted on
    the [simplex.verify_repairs] obs counter. Every reported solution is
    produced by exact arithmetic in all cases. *)

open Hydra_arith

val solve :
  ?objective:(int * Rat.t) list ->
  ?deadline:float ->
  ?max_iters:int ->
  ?warm_basis:int array ->
  ?basis_out:int array option ref ->
  Lp.t ->
  Simplex.status
(** Float-first drop-in for {!Simplex.solve} — same contract, same
    budget semantics (on a float-side timeout the exact path re-runs
    under the same budget so the verdict matches exact mode's).
    [warm_basis] is a terminal basis from a structurally identical LP
    (cached from an earlier run); it is verified first and silently
    discarded when singular, stale, or infeasible. *)

val solve_mode :
  ?objective:(int * Rat.t) list ->
  ?deadline:float ->
  ?max_iters:int ->
  ?warm_basis:int array ->
  ?basis_out:int array option ref ->
  Simplex.mode ->
  Lp.t ->
  Simplex.status
(** Dispatch on {!Simplex.mode}: {!Simplex.Exact} calls
    {!Simplex.solve} (ignoring [warm_basis]), {!Simplex.Float_first}
    calls {!solve}. *)
