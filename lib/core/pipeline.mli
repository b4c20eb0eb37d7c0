(** End-to-end vendor-site pipeline (Fig. 2): schema + CCs in, database
    summary out, with per-view diagnostics for the benchmark harness.

    The pipeline is fault-tolerant: {!regenerate} never raises. Every view
    lands on one rung of the degradation ladder {!Exact} → {!Relaxed} →
    {!Fallback}, and the caller reads {!diagnostics} to decide whether the
    artifact is good enough (the CLI maps the rungs to exit codes). *)

open Hydra_rel
open Hydra_workload

type violation = {
  v_pred : Predicate.t;
      (** the violated CC's predicate; [Predicate.true_] is the relation's
          total-size constraint *)
  v_expected : int;  (** the CC's cardinality *)
  v_achieved : int;
      (** tuple count actually realized by the closest-feasible solution;
          measured on the merged solution, so it equals what {!Validate}
          later reports (before integrity-repair additions) *)
}

type view_status =
  | Exact  (** every CC satisfied exactly *)
  | Relaxed of violation list
      (** infeasible or out-of-budget CC system; the closest-feasible
          solution is used and each violated CC is listed. An empty list
          means only internal consistency constraints were violated. *)
  | Fallback of string
      (** the solver produced nothing usable (reason attached); a
          metadata-only uniform summary from the relation's size stands
          in so materialization still works *)

type view_stats = {
  rel : string;
  num_subviews : int;
  num_lp_vars : int;  (** region variables after refinement (Fig. 12) *)
  num_lp_constraints : int;
  solve_seconds : float;
      (** full wall time of this view on the monotonic clock: formulate +
          solve (+ relax) + merge + refine *)
  metrics : (string * float) list;
      (** per-view delta of the {!Hydra_obs.Obs} registry — solver
          counters ([simplex.iterations], [bnb.nodes], …) and phase span
          durations ([span.view.solve.seconds], …) accrued while this
          view was processed. Empty when tracing is disabled. *)
  status : view_status;
  tier : Formulate.tier;
      (** the source that produced this view's outcome: [State] means
          it was replayed from an interrupted run's record, [Cache] from
          the shared solve cache, [Solve] that it was solved here *)
  fingerprint : string;
      (** the view's {!Formulate.fingerprint} content address, archived
          by the run ledger; [""] when the view never reached
          formulation (trivial views, pre-formulation errors) *)
  attempts : int;
      (** pool attempts this view consumed (1 = first try succeeded;
          more means the supervisor retried transient failures) *)
}

type diagnostics = {
  exact_views : int;
  relaxed_views : int;
  fallback_views : int;
  notes : string list;
      (** cross-view incidents: dropped unroutable CCs, summary-assembly
          degradations *)
}

type result = {
  summary : Summary.t;
  views : view_stats list;
  group_residuals : Grouping.residual list;
      (** grouping (distinct-count) CCs that value spreading could not
          meet exactly; empty when all grouping CCs are satisfied *)
  diagnostics : diagnostics;
  preprocess_seconds : float;
      (** CC completion + routing + view construction *)
  assemble_seconds : float;  (** cross-view summary assembly *)
  total_seconds : float;
      (** whole run; reconciles with the named phases:
          [preprocess_seconds + sum of views' solve_seconds +
          assemble_seconds <= total_seconds], with only loop bookkeeping
          in the gap (asserted in the test suite) *)
}

val degraded : diagnostics -> bool
(** Any view below {!Exact}? *)

val exn_message : exn -> string
(** Human-readable one-liner for the pipeline's known exception families
    (align/formulation/preprocess/summary/harvest errors), falling back
    to [Printexc.to_string]. This is the string that lands in
    {!Fallback} reasons and [diagnostics.notes]. *)

val complete_size_ccs :
  Schema.t -> Cc.t list -> (string * int) list -> Cc.t list
(** Append [|R| = n] constraints from the fallback size table (metadata
    row counts) for relations the workload never scans. *)

val regenerate :
  ?sizes:(string * int) list ->
  ?max_nodes:int ->
  ?policy:Summary.instantiation ->
  ?histograms:Correlation.column_hist list ->
  ?deadline_s:float ->
  ?retries:int ->
  ?jobs:int ->
  ?cache:Hydra_cache.Cache.t ->
  ?state_dir:string ->
  ?solve_mode:Hydra_lp.Simplex.mode ->
  Schema.t -> Cc.t list -> result
(** Preprocess, formulate and solve every view, align-and-merge, build the
    summary. [sizes] supplies fallback relation sizes; [max_nodes] bounds
    the integer search per view; [policy] selects the instantiation rule
    (Sec. 5.2); [histograms] are optional client value distributions to
    track inside regions (the value-correlation extension); [deadline_s]
    is a wall-clock budget in seconds for the whole run, enforced inside
    the solvers; [retries] is the number of 4x node-budget escalations
    attempted before a view degrades (default 1); [jobs] (default 1)
    solves views concurrently on a {!Hydra_par.Pool} of that many
    domains; [cache] short-circuits per-view solves through the
    content-addressed {!Hydra_cache.Cache} (see
    {!Formulate.solve_view_robust}) — a warm cache replays the exact
    per-view outcomes of the run that populated it, so hit-served runs
    report byte-identical summaries and statuses.

    [state_dir] makes the run {e resumable}: every solved view's
    outcome is stored, fsynced, in a {!Hydra_cache.Cache.Durable} store
    rooted at [state_dir] (one entry per {!Formulate.fingerprint}) before
    the view completes, and a later run with the same [state_dir]
    replays recorded outcomes — including failures — instead of
    re-solving, so a run killed at any point resumes to a byte-identical
    summary. A view task that raises an injected transient fault is
    re-run at once, at most twice ({!Hydra_par.Supervisor}).
    [solve_mode] (default [Exact]) selects the LP engine per view —
    [Float_first] shadows the exact pivot rules in doubles and
    verifies the terminal basis exactly, so summaries are byte-identical
    across modes (see {!Formulate.solve_view_robust}).

    Determinism contract: for any [jobs] count the summary, the per-view
    statuses and the grouping residuals are identical — each view is a
    pure function of its inputs, results are slotted in view order, and
    per-view obs metrics come from domain-local snapshot deltas. The one
    exception is [deadline_s], which ties degradation to real time, so a
    deadlined run's statuses may legitimately differ between jobs
    counts (each view still keeps its own deadline and ladder).

    Never raises: per-view faults — including exceptions escaping a
    pooled view task — surface as {!Relaxed} / {!Fallback} statuses and
    cross-view incidents as [diagnostics.notes]. The one deliberate
    exception: a simulated [Hydra_chaos.Chaos.Crashed] death unwinds
    to the caller, as the fault-injection harness requires. *)

val total_lp_vars : result -> int

(** {2 The run record} *)

val status_word : view_status -> string
(** ["exact"] / ["relaxed"] / ["fallback"]. *)

val status_detail : view_status -> string list
(** Why a view is not exact, as text: [[reason]] for {!Fallback}, one
    ["PRED expected N achieved K"] line per violated CC for {!Relaxed},
    [[]] for {!Exact}. *)

val to_ledger :
  subcommand:string -> spec_digest:string -> jobs:int -> exit_code:int ->
  ?spans:Hydra_obs.Obs.span list -> ?paths:(string * string) list ->
  result -> Hydra_obs.Ledger.run
(** The finished run as its ledger record, with the registry snapshot
    and event ring read now. Rungs are {!status_word}s and tiers
    ["solve"] / ["state"] / ["cache"]. Each view carries its LP size,
    attempts, {!status_detail} and metric delta, the diagnostics notes,
    and the summary's rows, tuples and repair tuples per relation.
    [?paths] names the run's artifacts (default none). *)
