(** LP formulation for one view (Sec. 4): one variable per region of each
    sub-view's optimal partition, one equality per applicable CC, plus
    consistency constraints equating sub-view marginals along shared
    attributes.

    Consistency is enforced along clique-tree edges only: by the running
    intersection property, the merge procedure (Sec. 5.1) compares each
    sub-view with the already-merged solution exactly on its separator
    with its tree parent, so parent/child marginal equality on separators
    suffices — and refining partitions only along separator attributes
    avoids a combinatorial region blow-up on wide fact views. *)

open Hydra_rel

type subview_problem = {
  sp_node : Viewgraph.tree_node;
  sp_attrs : string array;
  sp_domains : Interval.t array;
  sp_ccs : (Predicate.t * int) list;  (** applicable CCs, total-size first *)
  sp_partition : Region.t;
  sp_var_base : int;  (** first LP variable of this sub-view *)
}

type view_result = {
  view : Preprocess.view;
  problems : subview_problem list;
  solutions : Solution.t list;  (** in merge (clique-tree DFS) order *)
  lp_vars : int;
  lp_constraints : int;
}

exception Formulation_error of string

val build_problems : Preprocess.view -> subview_problem list
(** Partition each sub-view's domain (no refinement yet). *)

val refine_shared : subview_problem list -> subview_problem list
(** Consistency refinement: every partition is refined along the
    attributes of its incident tree-edge separators, at the union of all
    partitions' boundaries along each such attribute (a global cut set,
    so projection keys coincide across sub-views). *)

(** {2 Fault-tolerant solve} *)

type outcome =
  | Exact of view_result  (** every CC satisfied exactly *)
  | Relaxed of view_result * Hydra_arith.Rat.t
      (** closest-feasible solution after slack relaxation, with the total
          LP-level constraint violation; per-CC violations are measured on
          the merged solution by the pipeline *)
  | Failed of string
      (** nothing usable could be produced (relaxation timed out or an
          internal error); the reason is an actionable one-liner *)

type tier =
  | Solve
      (** the ladder ran: solved fresh, or never reached a store
          (trivial views, pre-formulation errors) *)
  | State  (** replayed from the [--state-dir] run-scoped store *)
  | Cache  (** replayed from the shared solve cache *)
(** Which source produced a view's outcome. Whether a store was
    configured at all is a fact of the run, not of the view. *)

type provenance = {
  tier : tier;
  fingerprint : string;
      (** the {!fingerprint} this solve is addressed by — reported even
          when no store consumed it (the run ledger archives it); [""]
          when the view never reached formulation (trivial views,
          pre-formulation errors) *)
}

val fingerprint :
  ?max_nodes:int -> ?retries:int -> Preprocess.view -> string
(** Content address of a view's solve: a hex digest of a canonical
    rendering of the view signature (relation, attributes, domains, CCs
    with their cardinalities, grouping CCs, clique-tree structure), the
    fully formulated LP, and the solver budgets ([max_nodes], [retries]).
    Because {!Preprocess} emits CCs in canonical order, textually
    reordered but equivalent workloads fingerprint identically, while any
    change to a CC, the schema, or the budgets changes the digest —
    cache invalidation is by construction. The wall-clock [deadline] is
    deliberately not part of the key. The LP's part of the text is
    {!Hydra_lp.Lp.render}'s, written in the same pass as the structural
    warm-start key's.
    @raise Formulation_error if the view cannot be formulated. *)

val solve_view_robust :
  ?max_nodes:int ->
  ?retries:int ->
  ?deadline:float ->
  ?cache:Hydra_cache.Cache.t ->
  ?state:Hydra_cache.Cache.t ->
  ?solve_mode:Hydra_lp.Simplex.mode ->
  Preprocess.view ->
  outcome * provenance
(** Full formulation and integer solve for one view; never raises.
    Formulation errors come back as [Failed]. On budget exhaustion the node
    budget is escalated 4x up to [retries] times (default 1); on
    infeasibility — or exhaustion after all retries — the system is
    re-solved by {!Relax} with consistency constraints weighted 1024x so
    violations concentrate on the data CCs. [deadline] bounds the whole
    attempt ladder in wall-clock time.

    With [?cache], the solve is keyed by {!fingerprint}: a valid stored
    entry short-circuits the whole ladder and replays the recorded
    solution vector (re-validated against the freshly formulated LP —
    length always, integer feasibility for exact entries — so corrupt or
    colliding entries degrade to misses). Fresh [Exact]/[Relaxed]
    outcomes are stored; [Failed] outcomes never are, and a stored one
    is a miss, since failure reflects the budget of the run that
    produced it.

    [?state] is the [--state-dir] run-scoped store (a
    {!Hydra_cache.Cache.Durable} cache). One lookup chain runs state,
    then cache, then the solve ladder; the first entry that decodes
    wins and names the view's {!tier}. A state store that missed
    records the outcome (a cache hit included); it also records and
    replays [Failed] outcomes, so a resumed run replays the interrupted
    run's exact per-view rungs rather than re-rolling the dice against
    budgets and deadlines.

    [solve_mode] (default [Exact]) selects the LP engine:
    [Float_first] runs the double-precision shadow simplex and verifies
    its terminal basis exactly (see {!Hydra_lp.Simplex.solve}), falling
    back to the all-exact path on any numerical ambiguity. In
    float-first mode, when [?cache] is supplied, solves also publish an
    advisory warm-start hint keyed by a {e structural} fingerprint (the
    LP with right-hand sides elided), so a later solve of the same view
    shape with edited CC totals starts from the stored terminal basis
    (repairing it with a dual phase when the edits left it primal
    infeasible) instead of solving cold. A hint is rewritten only when
    the solve's terminal basis differs from the one it was handed. Both
    keys and the hint lookup run before the [view.solve] span opens, so
    the span holds the solve alone. Hints are advisory:
    they are validated before use, never counted against the cache's
    hit/miss statistics, and cannot change results — only pivot
    counts. *)
