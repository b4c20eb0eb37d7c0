(** Exact two-phase revised simplex over rationals.

    Stands in for the Z3 solver the paper uses: HYDRA only needs one
    feasible point of the cardinality-constraint system, which phase I
    delivers. Bland's rule guarantees termination; all arithmetic is exact
    ({!Hydra_arith.Rat}), so a reported solution satisfies the constraints
    with zero error. The engine is one revised simplex written over its
    arithmetic, run exactly or in doubles behind {!solve}, with the
    basis kept as sparse LU factors plus eta updates, keeping cost
    proportional to the nonzeros of the basis rather than the (possibly
    huge) number of columns. *)

open Hydra_arith

type status =
  | Feasible of Rat.t array
      (** A basic feasible solution; when an objective was supplied, an
          optimal one. *)
  | Infeasible
  | Unbounded
  | Timeout
      (** The deadline or iteration budget was exhausted while further
          pivots were still needed. Never returned for a system whose
          start basis is already optimal, and never returned when no
          budget was supplied. *)

type mode = Exact | Float_first
(** Solve-path selection for the whole solver stack. [Exact] runs the
    all-rational engine from the slack/artificial start; [Float_first]
    runs the same engine in doubles first and verifies — repairing when
    needed — its terminal basis in exact arithmetic, so reported
    solutions are exact in both modes. *)

val mode_to_string : mode -> string
(** ["exact"] / ["float-first"] — the CLI spelling. *)

val solve :
  ?mode:mode ->
  ?warm_basis:int array ->
  ?objective:(int * Rat.t) list ->
  ?deadline:float ->
  ?max_iters:int ->
  ?basis_out:int array option ref ->
  Lp.t -> status
(** [solve lp] finds a feasible point of [lp]; with [~objective] it
    minimizes the given sparse linear objective over the feasible region.
    The one entry point into the LP engine.

    [mode] (default [Exact]) picks the ladder. [Float_first] tries, in
    order: the float run from [warm_basis] (a terminal basis from a
    structurally identical LP, silently discarded when malformed),
    which a dual phase repairs first when edited right-hand sides left
    it primal infeasible, and whose terminal basis is then verified —
    falling back to verifying [warm_basis] itself, with the same repair
    done exactly; the cold float run, whose terminal basis is then
    verified; and finally the cold exact run, which is all that [Exact]
    does ([warm_basis] is ignored there). Every reported solution comes
    from exact arithmetic.

    [deadline] is an absolute {!Hydra_obs.Mclock.now} instant (a
    monotonic clock) and [max_iters] a total pricing-pass budget shared
    by both phases and every rung; exhausting either yields {!Timeout}
    instead of looping indefinitely. A float run that times out hands
    over to the exact run under the same budget and count, so both modes
    give the same verdict. When [basis_out] is given and the result is
    {!Feasible}, it receives the terminal basis (one tableau column index
    per row) — the payload cached for warm-started verification.
    @raise Invalid_argument if an objective variable is not one of
    [lp]'s. *)
