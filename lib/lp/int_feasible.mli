(** Non-negative integer solutions of an {!Lp} system.

    HYDRA's cardinality constraints ask for tuple {e counts}, so a solution
    must be integral. The constraint matrices produced by region
    partitioning are 0/1 and near-laminar, so simplex vertices are almost
    always already integral; when they are not, a small branch-and-bound on
    fractional variables finishes the job (this mirrors what the paper gets
    from Z3's integer theory). *)

open Hydra_arith

type status =
  | Solution of Bigint.t array
  | Infeasible
  | Gave_up  (** node budget exhausted before a certificate either way *)
  | Timeout  (** wall-clock deadline hit before a certificate either way *)

val solve :
  ?max_nodes:int ->
  ?deadline:float ->
  ?mode:Simplex.mode ->
  ?warm_basis:int array ->
  ?root_basis:int array option ref ->
  Lp.t -> status
(** [solve lp] searches for a non-negative integer point satisfying every
    constraint. [max_nodes] bounds the branch-and-bound tree size
    (default [2000]); [deadline] is an absolute
    {!Hydra_obs.Mclock.now} instant (a monotonic clock) enforced both
    between nodes and inside each node's LP relaxation. [mode] (default
    {!Simplex.Exact}) selects the per-node solve path; [warm_basis]
    seeds the root node's warm rung with a cached terminal basis and
    [root_basis] receives the root node's own terminal basis — both
    apply to the root LP only, since child nodes carry extra branching
    rows. *)

val check : Lp.t -> Bigint.t array -> bool
(** Exact satisfaction check of an integer assignment. *)
