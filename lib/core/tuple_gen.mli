(** Tuple generator (Sec. 6): relation summaries to data.

    Static materialization expands every summary row-group into stored
    tables; dynamic generation binds relations to virtual sources that
    assemble tuple [r] on demand (pk = r, remaining columns from the
    row-group whose cumulative NumTuples range covers [r]) — the
    [datagen] scan property added to the engine. *)

open Hydra_rel
open Hydra_engine

val group_starts : Summary.relation_summary -> int array
(** [group_starts rs].(g) is the first 0-based row index of group [g];
    the final entry is the total row count. *)

val materialize_relation :
  ?pool:Hydra_par.Pool.t -> Schema.t -> Summary.relation_summary -> Table.t
(** One relation as a stored table. With [pool] (and more than one job),
    relations above a few thousand rows are filled in row-range shards,
    each shard writing a disjoint slice of the preallocated columns —
    the table is bit-identical to the sequential fill. *)

val materialize : ?jobs:int -> Summary.t -> Database.t
(** All relations as stored tables. [jobs] (default 1) shards the column
    fills across that many domains; the database contents are identical
    for any jobs count. *)

val generated_relation : Schema.t -> Summary.relation_summary -> Database.generated
(** The summary's row-groups as a generated source's runs: the groups'
    cumulative boundaries ({!group_starts}) and each column's value per
    group. *)

val dynamic : Summary.t -> Database.t
(** All relations generated on demand; nothing is materialized. *)

val row_source : Summary.relation_summary -> int -> int array
(** Full-tuple supply, exactly the Sec. 6 procedure — the unit of work a
    tuple-at-a-time executor requests from the scan operator (Fig. 15). *)

val with_datagen :
  ?jobs:int ->
  ?pool:Hydra_par.Pool.t ->
  Summary.t ->
  dynamic_relations:string list ->
  Database.t
(** Mixed binding: the [datagen] property toggled per relation, as in the
    PostgreSQL integration. Static relations materialize through the same
    sharded column fill as {!materialize}: pass [pool] to reuse a live
    pool, or [jobs] (default 1) to spin one up for the call ([pool]
    wins when both are given). The database contents are identical for
    any jobs count. *)
