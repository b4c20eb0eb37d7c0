(* Tuple generator (Sec. 6): turn relation summaries into data, either
   eagerly (static materialization) or lazily (the `datagen` dynamic scan:
   tuple r of relation R has pk = r and its remaining columns copied from
   the summary row-group whose cumulative NumTuples range covers r). *)

open Hydra_rel
open Hydra_engine
module Obs = Hydra_obs.Obs
module Mclock = Hydra_obs.Mclock
module Pool = Hydra_par.Pool

let m_rows = Obs.counter "tuple_gen.rows_materialized"

(* below this many rows a relation is filled inline: sharding overhead
   (domain wakeup + binary search per shard) would dominate *)
let shard_threshold = 4096

(* cumulative boundaries: starts.(g) = first 0-based row index of group g *)
let group_starts (rs : Summary.relation_summary) =
  let n = Array.length rs.Summary.rs_rows in
  let starts = Array.make (n + 1) 0 in
  for g = 0 to n - 1 do
    starts.(g + 1) <- starts.(g) + snd rs.Summary.rs_rows.(g)
  done;
  starts

(* [Database.locate] again, kept here for [row_source]'s call per row:
   dune's dev profile compiles with -opaque, so a call into another
   module is an indirect call of unknown arity, and through
   [Database.locate] [row_source] supplied 4-9% fewer rows per second.
   The copy goes once the benchmark builds in release. *)
let locate (starts : int array) ngroups cursor (row : int) =
  let g = !cursor in
  if g < ngroups && starts.(g) <= row && row < starts.(g + 1) then g
  else if g + 1 < ngroups && starts.(g + 1) <= row && row < starts.(g + 2)
  then begin
    cursor := g + 1;
    g + 1
  end
  else begin
    let lo = ref 0 and hi = ref (ngroups - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if starts.(mid) <= row then lo := mid else hi := mid - 1
    done;
    cursor := !lo;
    !lo
  end

(* ---- static materialization ---- *)

(* Fill rows [lo, hi) of the value columns from the row-groups. Writes
   only to the [lo, hi) slice, so disjoint ranges can be filled by
   different domains concurrently; the result is bit-identical to a
   single sequential pass regardless of the sharding. *)
let fill_range (rs : Summary.relation_summary) starts value_cols lo hi =
  let ncols = Array.length value_cols in
  let g = ref (Database.locate starts (Array.length rs.Summary.rs_rows) (ref 0) lo) in
  let pos = ref lo in
  while !pos < hi do
    let values, _ = rs.Summary.rs_rows.(!g) in
    let stop = min hi starts.(!g + 1) in
    for c = 0 to ncols - 1 do
      Array.fill value_cols.(c) !pos (stop - !pos) values.(c)
    done;
    pos := stop;
    incr g
  done

let materialize_relation ?pool schema (rs : Summary.relation_summary) =
  let r = Schema.find schema rs.Summary.rs_rel in
  let total = rs.Summary.rs_total in
  let pk_col = Array.init total (fun i -> i + 1) in
  let ncols = Array.length rs.Summary.rs_cols in
  let value_cols = Array.init ncols (fun _ -> Array.make total 0) in
  let starts = group_starts rs in
  (match pool with
  | Some pool when Pool.jobs pool > 1 && total > shard_threshold ->
      let nshards = Pool.jobs pool in
      let per = (total + nshards - 1) / nshards in
      Pool.iter_range pool nshards (fun s ->
          Hydra_chaos.Chaos.tap "materialize.shard";
          let lo = s * per and hi = min total ((s + 1) * per) in
          if lo < hi then fill_range rs starts value_cols lo hi)
  | _ ->
      Hydra_chaos.Chaos.tap "materialize.shard";
      fill_range rs starts value_cols 0 total);
  Table.of_columns rs.Summary.rs_rel (Schema.columns r)
    (pk_col :: Array.to_list value_cols)

let materialize ?(jobs = 1) (summary : Summary.t) =
  let jobs = max 1 jobs in
  Obs.with_span "tuple_gen.materialize" (fun () ->
      Pool.with_pool jobs (fun pool ->
      let db = Database.create summary.Summary.schema in
      List.iter
        (fun (rs : Summary.relation_summary) ->
          let t = Mclock.now () in
          let table = materialize_relation ~pool summary.Summary.schema rs in
          let n = Table.length table in
          Obs.incr m_rows n;
          let dt = Mclock.now () -. t in
          if Obs.enabled () then
            Obs.span_attr
              (rs.Summary.rs_rel ^ ".rows_per_sec")
              (Obs.Float (float_of_int n /. Float.max dt 1e-9));
          Database.bind_table db table)
        summary.Summary.relations;
      db))

(* ---- dynamic generation ---- *)

(* The summary's row-groups as the source's runs: their boundaries and,
   per column, one value per group. *)
let generated_relation schema (rs : Summary.relation_summary) =
  let r = Schema.find schema rs.Summary.rs_rel in
  {
    Database.gen_pk = r.Schema.pk;
    gen_starts = group_starts rs;
    gen_cols =
      Array.to_list
        (Array.mapi
           (fun ci c -> (c, Array.map (fun (values, _) -> values.(ci)) rs.Summary.rs_rows))
           rs.Summary.rs_cols);
  }

let dynamic (summary : Summary.t) =
  let db = Database.create summary.Summary.schema in
  List.iter
    (fun rs ->
      Database.bind db rs.Summary.rs_rel
        (Database.Generated (generated_relation summary.Summary.schema rs)))
    summary.Summary.relations;
  db

(* Full-tuple supply, exactly the paper's Sec. 6 procedure: tuple r of
   relation R is assembled as pk = r plus the value combination of the
   summary row-group whose cumulative NumTuples range covers r. This is
   the unit of work a tuple-at-a-time executor requests from the scan
   operator, and the basis of the data-supply-time experiment (Fig. 15). *)
let row_source (rs : Summary.relation_summary) =
  let starts = group_starts rs in
  let ngroups = Array.length rs.Summary.rs_rows in
  let cursor = ref 0 in
  let ncols = Array.length rs.Summary.rs_cols in
  fun row ->
    let values, _ = rs.Summary.rs_rows.(locate starts ngroups cursor row) in
    let tuple = Array.make (ncols + 1) (row + 1) in
    Array.blit values 0 tuple 1 ncols;
    tuple

(* mixed binding: the `datagen` property can be toggled per relation.
   Static relations go through the same sharded fill as [materialize] —
   the mixed path used to drop the pool and fill sequentially, making
   mostly-static bindings scale with zero of the jobs given to it. *)
let with_datagen ?(jobs = 1) ?pool (summary : Summary.t) ~dynamic_relations =
  let build pool =
    let db = Database.create summary.Summary.schema in
    List.iter
      (fun rs ->
        if List.mem rs.Summary.rs_rel dynamic_relations then
          Database.bind db rs.Summary.rs_rel
            (Database.Generated (generated_relation summary.Summary.schema rs))
        else
          Database.bind_table db
            (materialize_relation ?pool summary.Summary.schema rs))
      summary.Summary.relations;
    db
  in
  match pool with
  | Some _ -> build pool
  | None ->
      let jobs = max 1 jobs in
      if jobs = 1 then build None
      else Pool.with_pool jobs (fun pool -> build (Some pool))
