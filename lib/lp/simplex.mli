(** Exact two-phase revised simplex over rationals.

    Stands in for the Z3 solver the paper uses: HYDRA only needs one
    feasible point of the cardinality-constraint system, which phase I
    delivers. Bland's rule guarantees termination; all arithmetic is exact
    ({!Hydra_arith.Rat}), so a reported solution satisfies the constraints
    with zero error. This is the exact instance of the one revised-simplex
    engine {!Pivot.Make}, with an explicitly maintained basis inverse,
    keeping cost proportional to the number of rows rather than the
    (possibly huge) number of columns. *)

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
(** Solve-path selection for the whole solver stack. [Exact] is the
    historical all-rational path; [Float_first] runs the float shadow
    simplex ({!Simplex_f}) and verifies — repairing when needed — its
    terminal basis in exact arithmetic ({!Basis_verify}), so reported
    solutions are exact in both modes. *)

val mode_to_string : mode -> string
(** ["exact"] / ["float-first"] — the CLI spelling. *)

val mode_of_string : string -> mode option
(** Inverse of {!mode_to_string} (also accepts ["float_first"]);
    [None] on anything else. *)

val solve :
  ?objective:(int * Rat.t) list ->
  ?deadline:float ->
  ?max_iters:int ->
  ?basis_out:int array option ref ->
  Lp.t -> status
(** [solve lp] finds a feasible point of [lp]; with [~objective] it
    minimizes the given sparse linear objective over the feasible region.
    [deadline] is an absolute {!Hydra_obs.Mclock.now} instant (a
    monotonic clock) and [max_iters] a total pivot budget across both
    phases; exhausting either yields {!Timeout} instead of looping
    indefinitely. When [basis_out] is given and the result is
    {!Feasible}, it receives the terminal basis (one tableau column index
    per row) — the payload cached for warm-started verification. *)

type stats = { iterations : int; rows : int; cols : int }

val last_stats : unit -> stats
(** Statistics of the most recent [solve] call (for the benchmark harness). *)

(** {2 Internal surface}

    For {!Basis_verify}, which runs the float instance ({!Simplex_f})
    and then resumes this exact instance of {!Pivot.Make} from the
    candidate basis; not meant for other callers. *)

val run_phases :
  ?pivots:int ref ->
  budget:Pivot.budget ->
  Pivot.tableau ->
  Rat.t array array ->
  int array ->
  Rat.t array ->
  objective:(int * Rat.t) list option ->
  nvars:int ->
  int ref ->
  status
(** [run_phases ~budget t binv basis xb ~objective ~nvars iter_count]
    runs the exact engine from the given primal-feasible basis state,
    mutating [binv]/[basis]/[xb]. From an already-optimal basis this
    performs no pivots. [pivots], when given, counts basis changes (how
    {!Basis_verify} detects that repair happened). *)

val solve_with :
  rungs:
    (budget:Pivot.budget -> Pivot.tableau -> int array -> int ref ->
    (status * int array) option) ->
  ?objective:(int * Rat.t) list ->
  ?deadline:float ->
  ?max_iters:int ->
  ?basis_out:int array option ref ->
  Lp.t ->
  status
(** {!solve}, first trying [rungs ~budget t start_basis iter_count]: a
    [Some (status, terminal basis)] answer is the solve's result, [None]
    falls through to the cold exact run. The rungs share the solve's
    budget and iteration count. *)
