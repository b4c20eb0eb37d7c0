(* Determinism battery for the hydra.par domain pool (PR: multicore
   regeneration).

   The headline guarantee under test: for any jobs count the pipeline
   produces the same summary (byte-identical on disk), the same per-view
   status ladder, the same materialized tuples, and the same obs metric
   totals (up to per-domain accumulation order, which only affects float
   sums and wall-clock keys). A differential qcheck property checks all
   of it on random star-schema environments; a brute-force oracle pins
   the integer-LP layer against exhaustive enumeration under both the
   sequential and the pooled pipeline (a shared-state leak in Simplex
   would show up as jobs-dependent solver answers); and a two-domain
   smash test hammers the always-on event ring. *)

open Hydra_rel
open Hydra_engine
open Hydra_workload
module Pool = Hydra_par.Pool
module Obs = Hydra_obs.Obs
module Pipeline = Hydra_core.Pipeline
module Tuple_gen = Hydra_core.Tuple_gen
module Summary = Hydra_core.Summary
module Lp = Hydra_lp.Lp
module Int_feasible = Hydra_lp.Int_feasible
module Rat = Hydra_arith.Rat
module Bigint = Hydra_arith.Bigint

(* every parallel test runs at this width; > 1 even on 1-core machines so
   real domains are always exercised *)
let par_jobs = 3

(* qcheck case count, overridable for a deeper local soak
   (HYDRA_PAR_CASES=500 dune exec test/test_par.exe) *)
let cases =
  match Option.bind (Sys.getenv_opt "HYDRA_PAR_CASES") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 100

(* ---- pool unit tests ---- *)

let test_map_range_order () =
  Pool.with_pool 4 (fun p ->
      let r = Pool.map_range p 100 (fun i -> i * i) in
      Alcotest.(check (array int))
        "results in index order"
        (Array.init 100 (fun i -> i * i))
        r)

let test_map_list_order () =
  Pool.with_pool 4 (fun p ->
      let r = Pool.map_list p (fun s -> s ^ "!") [ "a"; "b"; "c"; "d"; "e" ] in
      Alcotest.(check (list string))
        "list order kept"
        [ "a!"; "b!"; "c!"; "d!"; "e!" ]
        r)

let test_nested_runs_inline () =
  (* a task that submits to its own pool must not deadlock: nested
     batches run inline on the worker *)
  Pool.with_pool 4 (fun p ->
      let r =
        Pool.map_range p 4 (fun i ->
            Array.fold_left ( + ) 0 (Pool.map_range p 8 (fun j -> (i * 8) + j)))
      in
      Alcotest.(check (array int))
        "nested sums"
        (Array.init 4 (fun i -> Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (i * 8) + j))))
        r)

exception Boom of int

let test_exception_propagates_pool_reusable () =
  Pool.with_pool 4 (fun p ->
      (* two failing indices: the aggregate carries both, in index order *)
      (match Pool.map_range p 10 (fun i -> if i = 3 || i = 7 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected Batch_failure"
      | exception Pool.Batch_failure fs ->
          Alcotest.(check (list int))
            "all failing indices" [ 3; 7 ]
            (List.map (fun (f : Pool.failure) -> f.Pool.f_index) fs);
          List.iter
            (fun (f : Pool.failure) ->
              match f.Pool.f_exn with
              | Boom i -> Alcotest.(check int) "payload matches index" f.Pool.f_index i
              | e -> Alcotest.fail ("unexpected exn: " ^ Printexc.to_string e))
            fs);
      (* the failed batch fully settled: the pool keeps working *)
      let r = Pool.map_range p 5 (fun i -> i + 1) in
      Alcotest.(check (array int)) "pool reusable" [| 1; 2; 3; 4; 5 |] r)

let test_create_rejects_zero () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create 0))

let test_empty_range () =
  Pool.with_pool 3 (fun p ->
      Alcotest.(check (array int)) "n=0" [||] (Pool.map_range p 0 (fun i -> i)))

let test_default_jobs_env () =
  let with_env v f =
    let old = Sys.getenv_opt "HYDRA_JOBS" in
    Unix.putenv "HYDRA_JOBS" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "HYDRA_JOBS" (Option.value old ~default:""))
      f
  in
  with_env "3" (fun () ->
      Alcotest.(check int) "HYDRA_JOBS=3" 3 (Pool.default_jobs ()));
  let rejected v =
    with_env v (fun () ->
        Alcotest.check_raises
          (Printf.sprintf "HYDRA_JOBS=%S is rejected" v)
          (Invalid_argument
             (Printf.sprintf
                "environment variable 'HYDRA_JOBS': expected an integer >= \
                 1, got %S"
                v))
          (fun () -> ignore (Pool.default_jobs ())))
  in
  rejected "0";
  rejected "banana"

(* ---- random pipeline environments (as in test_pipeline_prop) ---- *)

type env = {
  schema : Schema.t;
  dims : (string * int) list;
  fact_size : int;
  queries : (string * Predicate.t option) list list;
  seed : int;
}

let attr_count = 2

let env_gen =
  let open QCheck.Gen in
  let* ndims = int_range 1 3 in
  let* dim_sizes = list_size (return ndims) (int_range 3 40) in
  let* fact_size = int_range 20 300 in
  let* nqueries = int_range 1 5 in
  let* seed = int_range 0 10000 in
  let* query_specs =
    list_size (return nqueries)
      (list_size (return (ndims + 1))
         (option
            (pair (int_range 0 (attr_count - 1))
               (pair (int_range 0 15) (int_range 1 8)))))
  in
  return (dim_sizes, fact_size, query_specs, seed)

let build_env (dim_sizes, fact_size, query_specs, seed) =
  let dims = List.mapi (fun i n -> (Printf.sprintf "d%d" i, n)) dim_sizes in
  let mk_attrs prefix =
    List.init attr_count (fun i ->
        {
          Schema.aname = Printf.sprintf "%s%d" prefix i;
          dom_lo = 0;
          dom_hi = 20;
        })
  in
  let relations =
    List.map
      (fun (name, _) ->
        {
          Schema.rname = name;
          pk = name ^ "_pk";
          fks = [];
          attrs = mk_attrs name;
        })
      dims
    @ [
        {
          Schema.rname = "fact";
          pk = "fact_pk";
          fks = List.map (fun (d, _) -> ("fk_" ^ d, d)) dims;
          attrs = mk_attrs "f";
        };
      ]
  in
  let schema = Schema.create relations in
  let rel_names = "fact" :: List.map fst dims in
  let queries =
    List.map
      (fun filters ->
        List.map2
          (fun rel f ->
            match f with
            | None -> (rel, None)
            | Some (ai, (lo, w)) ->
                let attr_prefix = if rel = "fact" then "f" else rel in
                let q =
                  Schema.qualify rel (Printf.sprintf "%s%d" attr_prefix ai)
                in
                let lo = min lo 18 in
                let hi = min 20 (lo + w) in
                (rel, Some (Predicate.atom q (Interval.make lo hi))))
          rel_names filters)
      query_specs
  in
  { schema; dims; fact_size; queries; seed }

let populate env =
  let db = Database.create env.schema in
  let rng = ref (env.seed + 7) in
  let next () =
    rng := (!rng * 0x343FD) + 0x269EC3;
    (!rng lsr 8) land 0xFFFFFF
  in
  List.iter
    (fun r ->
      let rname = r.Schema.rname in
      let n =
        if rname = "fact" then env.fact_size else List.assoc rname env.dims
      in
      let t = Table.create rname (Schema.columns r) in
      for row = 1 to n do
        let fks =
          List.map
            (fun (_, tgt) -> 1 + (next () mod List.assoc tgt env.dims))
            r.Schema.fks
        in
        let attrs = List.map (fun _ -> next () mod 20) r.Schema.attrs in
        Table.add_row t (Array.of_list ((row :: fks) @ attrs))
      done;
      Database.bind_table db t)
    (Schema.relations env.schema);
  db

let workload_of env =
  Workload.create
    (List.mapi
       (fun i parts ->
         {
           Workload.qname = Printf.sprintf "q%d" i;
           plan = Workload.left_deep_plan env.schema parts;
         })
       env.queries)

let sizes_of env db =
  List.map
    (fun r -> (r.Schema.rname, Database.nrows db r.Schema.rname))
    (Schema.relations env.schema)

(* ---- differential property: jobs=1 vs jobs=k ---- *)

let summary_bytes s =
  let path = Filename.temp_file "hydra_par" ".summary" in
  Summary.save path s;
  let ic = open_in_bin path in
  let b =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  b

let status_key (v : Pipeline.view_stats) =
  ( v.Pipeline.rel,
    match v.Pipeline.status with
    | Pipeline.Exact -> "exact"
    | Pipeline.Relaxed vs ->
        Printf.sprintf "relaxed:%s"
          (String.concat ","
             (List.map
                (fun (viol : Pipeline.violation) ->
                  Printf.sprintf "%s=%d/%d"
                    (Predicate.to_string viol.Pipeline.v_pred)
                    viol.Pipeline.v_expected viol.Pipeline.v_achieved)
                vs))
    | Pipeline.Fallback r -> "fallback:" ^ r )

(* metric totals that must be jobs-invariant: everything except
   wall-clock durations and float histogram sums (whose value depends on
   addition order across domains) *)
let stable_metrics snap =
  List.filter
    (fun (k, _) ->
      not
        (String.ends_with ~suffix:".seconds" k
        || String.ends_with ~suffix:".sum" k))
    (Obs.flatten snap)

let dbs_equal schema db1 db2 =
  List.for_all
    (fun (r : Schema.relation) ->
      let rname = r.Schema.rname in
      let n = Database.nrows db1 rname in
      Database.nrows db2 rname = n
      && List.for_all
           (fun c ->
             let r1 = Database.reader db1 rname c in
             let r2 = Database.reader db2 rname c in
             let ok = ref true in
             for i = 0 to n - 1 do
               if r1 i <> r2 i then ok := false
             done;
             !ok)
           (Schema.columns r))
    (Schema.relations schema)

(* one full client->vendor run at a given width; no deadline, so the
   result must be a pure function of the inputs *)
let run_at ~jobs env =
  let db = populate env in
  let wl = workload_of env in
  let ccs = Workload.extract_ccs ~jobs db wl in
  Obs.set_enabled true;
  Obs.reset ();
  let result =
    Pipeline.regenerate ~sizes:(sizes_of env db) ~jobs env.schema ccs
  in
  let mdb = Tuple_gen.materialize ~jobs result.Pipeline.summary in
  let metrics = stable_metrics (Obs.snapshot ()) in
  Obs.set_enabled false;
  (ccs, result, mdb, metrics)

let prop_jobs_invariant =
  QCheck.Test.make ~name:"jobs=1 and jobs=k produce identical output"
    ~count:cases (QCheck.make env_gen) (fun raw ->
      let env = build_env raw in
      let ccs1, r1, db1, m1 = run_at ~jobs:1 env in
      let ccsk, rk, dbk, mk = run_at ~jobs:par_jobs env in
      (* same CCs out of parallel workload extraction *)
      if ccs1 <> ccsk then QCheck.Test.fail_report "extracted CCs differ";
      (* byte-identical summary artifact *)
      if summary_bytes r1.Pipeline.summary <> summary_bytes rk.Pipeline.summary
      then QCheck.Test.fail_report "summary bytes differ";
      (* same per-view degradation ladder, violations included *)
      if
        List.map status_key r1.Pipeline.views
        <> List.map status_key rk.Pipeline.views
      then QCheck.Test.fail_report "view statuses differ";
      (* same grouping residuals *)
      if
        List.length r1.Pipeline.group_residuals
        <> List.length rk.Pipeline.group_residuals
      then QCheck.Test.fail_report "grouping residuals differ";
      (* same materialized tuples *)
      if not (dbs_equal env.schema db1 dbk) then
        QCheck.Test.fail_report "materialized tuples differ";
      (* same metric totals (counters, histogram/span counts, gauges) *)
      if m1 <> mk then begin
        let show kvs =
          String.concat "; "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) kvs)
        in
        QCheck.Test.fail_reportf "obs totals differ:\n  jobs=1: %s\n  jobs=%d: %s"
          (show m1) par_jobs (show mk)
      end;
      true)

(* ---- brute-force oracle for the integer-LP layer ---- *)

(* Tiny random CC-shaped systems: [n <= 4] variables, a total-size
   constraint [sum of all vars = total], and up to three random
   subset-count constraints. Because the total pins every variable into
   [0, total], exhaustive enumeration over [0..total]^n is a complete
   oracle for feasibility. *)
let lp_case_gen =
  let open QCheck.Gen in
  let* nvars = int_range 1 4 in
  let* total = int_range 0 6 in
  let* nextra = int_range 0 3 in
  let* extras =
    list_size (return nextra)
      (pair
         (list_size (return nvars) bool) (* subset membership mask *)
         (int_range 0 8))
  in
  return (nvars, total, extras)

let build_lp (nvars, total, extras) =
  let lp = Lp.create () in
  let first = Lp.add_vars lp nvars in
  let all = List.init nvars (fun i -> first + i) in
  Lp.add_eq_count lp all total;
  List.iter
    (fun (mask, k) ->
      let subset =
        List.filteri (fun i _ -> List.nth mask i) all
      in
      if subset <> [] then Lp.add_eq_count lp subset k)
    extras;
  lp

(* enumerate every x in [0..total]^nvars and test exact satisfaction *)
let oracle_feasible lp nvars total =
  let x = Array.make nvars 0 in
  let rec go i =
    if i = nvars then
      Lp.check lp (Array.map Rat.of_int x)
    else begin
      let found = ref false in
      let v = ref 0 in
      while (not !found) && !v <= total do
        x.(i) <- !v;
        if go (i + 1) then found := true;
        incr v
      done;
      !found
    end
  in
  go 0

let solve_verdict lp =
  match Int_feasible.solve lp with
  | Int_feasible.Solution x ->
      if not (Int_feasible.check lp x) then
        QCheck.Test.fail_report "solver returned a non-solution";
      `Feasible
  | Int_feasible.Infeasible -> `Infeasible
  | Int_feasible.Gave_up | Int_feasible.Timeout ->
      QCheck.Test.fail_report "solver gave up on a <=4-var system"

let prop_lp_oracle =
  QCheck.Test.make ~name:"Int_feasible agrees with brute-force oracle"
    ~count:cases (QCheck.make lp_case_gen) (fun ((nvars, total, _) as case) ->
      let expected =
        if oracle_feasible (build_lp case) nvars total then `Feasible
        else `Infeasible
      in
      (* sequential solve *)
      let seq = solve_verdict (build_lp case) in
      if seq <> expected then
        QCheck.Test.fail_report "sequential solve disagrees with oracle";
      (* the same solves inside pool workers: leaked solver state across
         domains (e.g. a global stats cell) would break agreement *)
      let pooled =
        Pool.with_pool par_jobs (fun p ->
            Pool.map_range p 4 (fun _ -> solve_verdict (build_lp case)))
      in
      Array.iter
        (fun v ->
          if v <> expected then
            QCheck.Test.fail_report "pooled solve disagrees with oracle")
        pooled;
      true)

(* ---- obs under domains ---- *)

let test_counter_merges_across_domains () =
  Obs.set_enabled true;
  Obs.reset ();
  let c = Obs.counter "par.test.hits" in
  Pool.with_pool 3 (fun p ->
      Pool.iter_range p 30 (fun _ -> Obs.incr c 2));
  (* the pool joined: the summed snapshot is quiescent and exact *)
  Alcotest.(check int) "sum across shards" 60 (Obs.counter_value c);
  Obs.set_enabled false

let test_ring_two_domain_smash () =
  Obs.reset ();
  let hammer tag () =
    for i = 1 to 10_000 do
      Obs.event ~level:Obs.Warn
        ~attrs:[ ("i", Obs.Int i) ]
        (Printf.sprintf "smash-%s" tag)
    done
  in
  let d1 = Domain.spawn (hammer "a") in
  let d2 = Domain.spawn (hammer "b") in
  hammer "c" ();
  Domain.join d1;
  Domain.join d2;
  let evs = Obs.recent_events () in
  Alcotest.(check bool) "ring capacity respected" true (List.length evs <= 256);
  Alcotest.(check bool) "ring non-empty" true (evs <> []);
  List.iter
    (fun (e : Obs.event) ->
      if not (String.length e.Obs.ev_msg > 6
              && String.sub e.Obs.ev_msg 0 6 = "smash-")
      then Alcotest.fail ("torn event in ring: " ^ e.Obs.ev_msg))
    evs;
  Obs.reset ()

(* regression: [Tuple_gen.with_datagen] ignored [?jobs]/[?pool] and always
   materialized static relations sequentially. It now routes them through
   the same sharded fill as [materialize]; the mixed-binding database
   must be identical at any width, pooled or not. *)
let test_with_datagen_jobs_invariant () =
  let spec =
    Cc_parser.parse
      {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 400;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
|}
  in
  let schema = spec.Cc_parser.schema in
  let result = Pipeline.regenerate schema spec.Cc_parser.ccs in
  let summary = result.Pipeline.summary in
  let dyn = [ "R" ] in
  let db1 = Tuple_gen.with_datagen summary ~dynamic_relations:dyn in
  let dbk =
    Tuple_gen.with_datagen ~jobs:par_jobs summary ~dynamic_relations:dyn
  in
  let dbp =
    Pool.with_pool par_jobs (fun pool ->
        Tuple_gen.with_datagen ~pool summary ~dynamic_relations:dyn)
  in
  Alcotest.(check bool) "jobs=k identical to sequential" true
    (dbs_equal schema db1 dbk);
  Alcotest.(check bool) "explicit pool identical to sequential" true
    (dbs_equal schema db1 dbp);
  (* the dynamic relation really is generated, at the right cardinality *)
  Alcotest.(check int) "dynamic relation cardinality" 80000
    (Database.nrows dbk "R")

let suite =
  [
    ( "pool",
      [
        Alcotest.test_case "map_range keeps index order" `Quick
          test_map_range_order;
        Alcotest.test_case "map_list keeps list order" `Quick
          test_map_list_order;
        Alcotest.test_case "nested submission runs inline" `Quick
          test_nested_runs_inline;
        Alcotest.test_case "exception propagates, pool reusable" `Quick
          test_exception_propagates_pool_reusable;
        Alcotest.test_case "create rejects jobs=0" `Quick
          test_create_rejects_zero;
        Alcotest.test_case "empty range" `Quick test_empty_range;
        Alcotest.test_case "default_jobs honors HYDRA_JOBS" `Quick
          test_default_jobs_env;
      ] );
    ( "determinism",
      [
        Alcotest.test_case "with_datagen mixed binding is jobs-invariant"
          `Quick test_with_datagen_jobs_invariant;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_jobs_invariant ] );
    ( "lp-oracle", List.map QCheck_alcotest.to_alcotest [ prop_lp_oracle ] );
    ( "obs-domains",
      [
        Alcotest.test_case "counter merges across domains" `Quick
          test_counter_merges_across_domains;
        Alcotest.test_case "two-domain ring smash" `Quick
          test_ring_two_domain_smash;
      ] );
  ]

let () = Alcotest.run "hydra-par" suite
