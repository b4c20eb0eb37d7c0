(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 7). Each figN command prints the paper's reported
   numbers next to ours; absolute values differ (the paper ran a 100 GB
   TPC-DS on PostgreSQL; we run laptop-scaled synthetic environments) but
   the comparisons — who wins, by what factor, where methods break — are
   the reproduction target. See EXPERIMENTS.md for the recorded outcomes.

   Every target runs inside a [bench.<target>] span with the hydra.obs
   registry enabled and reset, and leaves a BENCH_<target>.json artifact
   (wall time + full metrics snapshot) in the working directory. The
   `smoke` target is a CI-sized end-to-end run that re-parses its own
   artifact and fails loudly if the observability contract is broken.

   Usage: dune exec bench/main.exe [-- fig9|fig10|fig11|fig12|fig13|fig14|
                                       fig15|exabyte|fig16|fig17|ablation|
                                       correlation|robust|par|micro|smoke|
                                       all] *)

module T = Hydra_benchmarks.Tpcds
module J = Hydra_benchmarks.Job
module Pipeline = Hydra_core.Pipeline
module Tuple_gen = Hydra_core.Tuple_gen
module Validate = Hydra_core.Validate
module Summary = Hydra_core.Summary
module Workload = Hydra_workload.Workload
module Audit = Hydra_audit.Audit
module Scaling = Hydra_codd.Scaling
module Bigint = Hydra_arith.Bigint
module Obs = Hydra_obs.Obs
module Mclock = Hydra_obs.Mclock
module Json = Hydra_obs.Json
module Pool = Hydra_par.Pool

let sf = 100 (* stands in for the paper's 100 GB instance *)

let time f =
  let t0 = Mclock.now () in
  let v = f () in
  (v, Mclock.now () -. t0)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let header title paper =
  Printf.printf "\n==== %s ====\n" title;
  Printf.printf "paper: %s\n%!" paper

(* ---- lazily shared environments ---- *)

let tpcds_db = lazy (T.generate ~sf ())
let wlc = lazy (T.workload_complex ())
let wls = lazy (T.workload_simple ())
let wlc_ccs = lazy (Workload.extract_ccs (Lazy.force tpcds_db) (Lazy.force wlc))
let wls_ccs = lazy (Workload.extract_ccs (Lazy.force tpcds_db) (Lazy.force wls))
let tpcds_sizes = lazy (T.sizes ~sf)

let hydra_wlc =
  lazy
    (Pipeline.regenerate ~sizes:(Lazy.force tpcds_sizes)
       ~solve_mode:Hydra_lp.Simplex.Float_first T.schema
       (Lazy.force wlc_ccs))

let hydra_wls =
  lazy
    (Pipeline.regenerate ~sizes:(Lazy.force tpcds_sizes)
       ~solve_mode:Hydra_lp.Simplex.Float_first T.schema
       (Lazy.force wls_ccs))

let datasynth_wls =
  lazy
    (Hydra_datasynth.Datasynth.regenerate ~sizes:(Lazy.force tpcds_sizes)
       T.schema (Lazy.force wls_ccs))

let job_db = lazy (J.generate ~sf ())
let job_wl = lazy (J.workload ())
let job_ccs = lazy (Workload.extract_ccs (Lazy.force job_db) (Lazy.force job_wl))

let job_hydra =
  lazy (Pipeline.regenerate ~sizes:(J.sizes ~sf) J.schema (Lazy.force job_ccs))

let print_histogram hist total =
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        let label = if i = 0 then "0    " else Printf.sprintf "10^%-2d" (i - 1) in
        Printf.printf "  %s %4d  %s\n" label n
          (String.make (max 1 (n * 50 / total)) '#')
      end)
    hist

(* ---- Figure 9: CC cardinality distribution, WLc ---- *)

let fig9 () =
  header "Figure 9: distribution of CC cardinalities (WLc)"
    "131 queries -> 351 CCs; wide spread from a few tuples to ~10^9";
  let ccs = Lazy.force wlc_ccs in
  Printf.printf "ours: %d queries -> %d CCs at sf=%d\n"
    (Workload.num_queries (Lazy.force wlc))
    (List.length ccs) sf;
  print_histogram (Workload.cardinality_histogram ccs) (List.length ccs);
  (* the paper measured at 100 GB; rescaling shows the same spread shifted *)
  let scaled = Workload.scale_ccs 1e4 ccs in
  Printf.printf "rescaled to the paper's 100 GB volume (x10^4):\n";
  print_histogram (Workload.cardinality_histogram scaled) (List.length scaled)

(* ---- Figure 10: quality of volumetric similarity ---- *)

let fig10 () =
  header "Figure 10: volumetric similarity, % CCs within relative error (WLs)"
    "Hydra ~90% exact, all within 10%; DataSynth ~80% accurate, tail to \
     60%, ~1/3 negative errors";
  let ccs = Lazy.force wls_ccs in
  let hr = Lazy.force hydra_wls in
  let hdb = Tuple_gen.materialize hr.Pipeline.summary in
  let hv = Validate.check hdb ccs in
  let dr = Lazy.force datasynth_wls in
  let dv = Validate.check dr.Hydra_datasynth.Datasynth.db ccs in
  Printf.printf "%10s %10s %10s\n" "error<=" "Hydra" "DataSynth";
  List.iter
    (fun th ->
      Printf.printf "%9.1f%% %9.1f%% %9.1f%%\n" (100.0 *. th)
        (100.0 *. Validate.coverage_at hv th)
        (100.0 *. Validate.coverage_at dv th))
    [ 0.0; 0.01; 0.05; 0.1; 0.2; 0.4; 0.6; 1.0 ];
  Printf.printf
    "negative errors: Hydra %.1f%% (paper: none), DataSynth %.1f%% (paper: ~33%%)\n"
    (100.0 *. hv.Validate.negative_fraction)
    (100.0 *. dv.Validate.negative_fraction)

(* ---- Figure 11: extra tuples for referential integrity ---- *)

let fig11 () =
  header "Figure 11: extra tuples added for referential integrity"
    "Hydra often an order of magnitude fewer extra tuples than DataSynth";
  (* DataSynth's grid LP crashes on WLc, so the comparison runs on WLs *)
  let hr = Lazy.force hydra_wls in
  let dr = Lazy.force datasynth_wls in
  Printf.printf "%-24s %10s %10s\n" "relation" "Hydra" "DataSynth";
  let hydra_extra = hr.Pipeline.summary.Summary.extra_tuples in
  List.iter
    (fun (rel, h) ->
      let d =
        try List.assoc rel dr.Hydra_datasynth.Datasynth.extra_tuples
        with Not_found -> 0
      in
      if h > 0 || d > 0 then Printf.printf "%-24s %10d %10d\n" rel h d)
    hydra_extra;
  let total l = List.fold_left (fun a (_, n) -> a + n) 0 l in
  Printf.printf "%-24s %10d %10d\n" "TOTAL" (total hydra_extra)
    (total dr.Hydra_datasynth.Datasynth.extra_tuples)

(* ---- Figure 12: number of LP variables, region vs grid ---- *)

let fig12 () =
  header
    "Figure 12: LP variables per relation, Hydra (regions) vs DataSynth (grid), WLc"
    "orders of magnitude apart: catalog_sales 1620 vs 5.5M; item 3.7K vs 10^11";
  let ccs_full =
    Pipeline.complete_size_ccs T.schema (Lazy.force wlc_ccs)
      (Lazy.force tpcds_sizes)
  in
  let grid = Hydra_datasynth.Datasynth.variable_counts T.schema ccs_full in
  let hr = Lazy.force hydra_wlc in
  Printf.printf "%-24s %12s %18s %10s\n" "relation" "Hydra" "DataSynth(grid)"
    "ratio";
  List.iter
    (fun (v : Pipeline.view_stats) ->
      let g = List.assoc v.Pipeline.rel grid in
      if
        v.Pipeline.num_lp_vars > 10
        || Bigint.compare g (Bigint.of_int 1000) > 0
      then begin
        let ratio =
          Bigint.to_float g /. float_of_int (max 1 v.Pipeline.num_lp_vars)
        in
        Printf.printf "%-24s %12d %18s %9.0fx\n" v.Pipeline.rel
          v.Pipeline.num_lp_vars (Bigint.to_string g) ratio
      end)
    hr.Pipeline.views

(* ---- Figure 13: LP processing time ---- *)

let fig13 () =
  header "Figure 13: LP processing time"
    "WLc: DataSynth crash / Hydra 58 s.  WLs: DataSynth 50 min / Hydra 13 s";
  let hydra_time r =
    List.fold_left
      (fun acc (v : Pipeline.view_stats) -> acc +. v.Pipeline.solve_seconds)
      0.0 r.Pipeline.views
  in
  let hc = hydra_time (Lazy.force hydra_wlc) in
  let hs = hydra_time (Lazy.force hydra_wls) in
  let ds_wlc =
    (* attempting to even materialize the grids must fail *)
    match
      let ccs_full =
        Pipeline.complete_size_ccs T.schema (Lazy.force wlc_ccs)
          (Lazy.force tpcds_sizes)
      in
      let views = Hydra_core.Preprocess.run T.schema ccs_full in
      List.iter
        (fun v ->
          ignore
            (Hydra_datasynth.Datasynth.solve_view_grid ~max_cells:200_000 v))
        views
    with
    | () -> "completed (unexpected)"
    | exception Hydra_datasynth.Datasynth.Crash _ -> "crash"
  in
  let ds = Lazy.force datasynth_wls in
  Printf.printf "%-18s %-14s %-14s\n" "" "WLc" "WLs";
  Printf.printf "%-18s %-14s %.1fs\n" "DataSynth" ds_wlc
    ds.Hydra_datasynth.Datasynth.solve_seconds;
  Printf.printf "%-18s %.1fs %14.1fs\n" "Hydra" hc hs

(* ---- Figure 14: data materialization time ---- *)

let fig14 () =
  header "Figure 14: data materialization time at 10x scale steps"
    "10 GB: 4 h vs 2 min; 100 GB: 42 h vs 11 min; 1000 GB: >1 week vs 1.6 h";
  let base_ccs = Lazy.force wls_ccs in
  let base_sizes = Lazy.force tpcds_sizes in
  Printf.printf "%-16s %14s %14s %10s\n" "scale" "DataSynth" "Hydra" "ratio";
  List.iter
    (fun factor ->
      let ccs = Workload.scale_ccs (float_of_int factor) base_ccs in
      let sizes = List.map (fun (r, n) -> (r, n * factor)) base_sizes in
      let hr, h_summary_t =
        time (fun () -> Pipeline.regenerate ~sizes T.schema ccs)
      in
      let _, h_mat_t =
        time (fun () -> Tuple_gen.materialize hr.Pipeline.summary)
      in
      let h_total = h_summary_t +. h_mat_t in
      let dr, _ =
        time (fun () ->
            Hydra_datasynth.Datasynth.regenerate ~sizes T.schema ccs)
      in
      let d_total =
        dr.Hydra_datasynth.Datasynth.solve_seconds
        +. dr.Hydra_datasynth.Datasynth.materialize_seconds
      in
      Printf.printf "%-16s %13.2fs %13.2fs %9.1fx\n"
        (Printf.sprintf "x%d" factor)
        d_total h_total (d_total /. h_total))
    [ 1; 10; 100 ]

(* ---- Sec. 7.4: exabyte-scale summary generation ---- *)

let exabyte () =
  header "Sec. 7.4: Big Data volumes — exabyte-scale summary"
    "summary for a 10^18-byte database generated in < 2 min";
  let scaling = Scaling.create ~factor:1e13 in
  let ccs = Scaling.scale_ccs scaling (Lazy.force wlc_ccs) in
  let sizes =
    List.map
      (fun (r, n) -> (r, Scaling.scale_count scaling n))
      (Lazy.force tpcds_sizes)
  in
  let r, dt = time (fun () -> Pipeline.regenerate ~sizes T.schema ccs) in
  Printf.printf
    "summary built in %.1f s: %d rows describing %d tuples (~10^18)\n" dt
    (Summary.summary_rows r.Pipeline.summary)
    (Summary.total_rows r.Pipeline.summary);
  let dyn = Tuple_gen.dynamic r.Pipeline.summary in
  let rd = Hydra_engine.Database.reader dyn "store_sales" "ss_quantity" in
  let _, access = time (fun () -> rd 200_000_000_000_000_000) in
  Printf.printf "random tuple access at position 2*10^17: %.6fs\n" access

(* ---- Figure 15: data supply times, disk scan vs dynamic generation ---- *)

let fig15 () =
  header
    "Figure 15: data supply time for aggregate queries (5 biggest relations)"
    "dynamic generation competitive with (usually faster than) stored scans";
  (* Scale up 20x so scans are long enough to time. Both sides supply
     whole tuples to the consumer, as a tuple-at-a-time executor demands:
     the stored side assembles each tuple from the table (PostgreSQL's
     heap supplies complete rows), the dynamic side assembles it from the
     relation summary (Sec. 6). *)
  let factor = 20 in
  let ccs = Workload.scale_ccs (float_of_int factor) (Lazy.force wls_ccs) in
  let sizes =
    List.map (fun (r, n) -> (r, n * factor)) (Lazy.force tpcds_sizes)
  in
  let hr = Pipeline.regenerate ~sizes T.schema ccs in
  let static_db = Tuple_gen.materialize hr.Pipeline.summary in
  Printf.printf "%-16s %12s %14s %14s\n" "relation" "rows" "stored scan"
    "dynamic scan";
  List.iter
    (fun rel ->
      let table =
        match Hydra_engine.Database.source static_db rel with
        | Hydra_engine.Database.Stored t -> t
        | Hydra_engine.Database.Generated _ -> assert false
      in
      let n = Hydra_rel.Table.length table in
      let col_pos = 1 + List.length (Hydra_rel.Schema.find T.schema rel).Hydra_rel.Schema.fks in
      let stored_scan () =
        let acc = ref 0 in
        for r = 0 to n - 1 do
          let tuple = Hydra_rel.Table.row table r in
          acc := !acc + tuple.(col_pos)
        done;
        !acc
      in
      let summary_rel = Summary.relation hr.Pipeline.summary rel in
      let dynamic_scan () =
        let supply = Tuple_gen.row_source summary_rel in
        let acc = ref 0 in
        for r = 0 to n - 1 do
          let tuple = supply r in
          acc := !acc + tuple.(col_pos)
        done;
        !acc
      in
      let best f =
        let t = ref infinity and v = ref 0 in
        for _ = 1 to 3 do
          let x, dt = time f in
          v := x;
          if dt < !t then t := dt
        done;
        (!v, !t)
      in
      let v1, disk = best stored_scan in
      let v2, dyn = best dynamic_scan in
      assert (v1 = v2);
      Printf.printf "%-16s %12d %13.4fs %13.4fs %s\n" rel n disk dyn
        (if dyn <= disk then "(dynamic wins)" else ""))
    T.big_five

(* ---- Figure 16: JOB CC distribution ---- *)

let fig16 () =
  header "Figure 16: cardinality distribution of CCs in JOB"
    "260 queries -> 523 CCs, highly varied cardinalities";
  let ccs = Lazy.force job_ccs in
  Printf.printf "ours: %d queries -> %d CCs at sf=%d\n"
    (Workload.num_queries (Lazy.force job_wl))
    (List.length ccs) sf;
  print_histogram (Workload.cardinality_histogram ccs) (List.length ccs)

(* ---- Figure 17: JOB LP variables / summary time / fidelity ---- *)

let fig17 () =
  header "Figure 17: LP variables per JOB view"
    "typically a few thousand, never exceeding 10^5; summary in ~20 s; \
     all CCs within 2% relative error";
  let r, dt = time (fun () -> Lazy.force job_hydra) in
  Printf.printf "summary generated in %.1f s\n" dt;
  List.iter
    (fun (v : Pipeline.view_stats) ->
      if v.Pipeline.num_lp_vars > 0 then
        Printf.printf "  %-18s %6d vars\n" v.Pipeline.rel
          v.Pipeline.num_lp_vars)
    r.Pipeline.views;
  let db = Tuple_gen.materialize r.Pipeline.summary in
  let v = Validate.check db (Lazy.force job_ccs) in
  Format.printf "fidelity: %a@." Validate.pp v

(* ---- Ablation: instantiation policy (Sec. 5.2 design choice) ---- *)

let ablation () =
  header "Ablation: left-corner vs midpoint instantiation (Sec. 5.2)"
    "the paper argues deterministic left boundaries minimize integrity-\
     repair additions; midpoint instantiation quantifies the alternative";
  let ccs = Lazy.force wls_ccs in
  let sizes = Lazy.force tpcds_sizes in
  let run policy =
    let r = Pipeline.regenerate ~sizes ~policy T.schema ccs in
    let extras =
      List.fold_left
        (fun a (_, n) -> a + n)
        0 r.Pipeline.summary.Summary.extra_tuples
    in
    let db = Tuple_gen.materialize r.Pipeline.summary in
    let v = Validate.check db ccs in
    (extras, v)
  in
  let e_low, v_low = run `Low_corner in
  let e_mid, v_mid = run `Midpoint in
  Printf.printf "%-14s %14s %16s %14s\n" "policy" "extra tuples" "exact CCs"
    "max |err|";
  Printf.printf "%-14s %14d %15.1f%% %13.2f%%\n" "low-corner" e_low
    (100.0 *. v_low.Validate.exact_fraction)
    (100.0 *. v_low.Validate.max_abs_error);
  Printf.printf "%-14s %14d %15.1f%% %13.2f%%\n" "midpoint" e_mid
    (100.0 *. v_mid.Validate.exact_fraction)
    (100.0 *. v_mid.Validate.max_abs_error)

(* ---- Extension: value-correlation summaries (Sec. 9 future work) ---- *)

let correlation () =
  header "Extension: value-distribution fidelity with client histograms"
    "Sec. 9 future work: leverage value-based summary information for \
     stronger fidelity; not evaluated in the paper";
  let ccs = Lazy.force wls_ccs in
  let sizes = Lazy.force tpcds_sizes in
  let md = Hydra_codd.Metadata.capture (Lazy.force tpcds_db) in
  let cols =
    [ ("store_sales", "ss_price"); ("item", "i_brand"); ("item", "i_price") ]
  in
  let hists =
    List.filter_map
      (fun (r, a) ->
        Hydra_core.Correlation.of_metadata md (Hydra_rel.Schema.qualify r a))
      cols
  in
  let run hists =
    let r = Pipeline.regenerate ~sizes ~histograms:hists T.schema ccs in
    let db = Tuple_gen.materialize r.Pipeline.summary in
    let extras =
      List.fold_left (fun a (_, n) -> a + n)
        0 r.Pipeline.summary.Summary.extra_tuples
    in
    (r, db, extras)
  in
  let _, db_plain, e_plain = run [] in
  let r_spread, db_spread, e_spread = run hists in
  Printf.printf "%-24s %16s %16s\n" "column (EMD to client)" "corner rule"
    "histogram-guided";
  List.iter2
    (fun (rname, aname) hist ->
      Printf.printf "%-24s %16.4f %16.4f\n"
        (rname ^ "." ^ aname)
        (Hydra_core.Correlation.histogram_distance db_plain rname aname hist)
        (Hydra_core.Correlation.histogram_distance db_spread rname aname hist))
    cols hists;
  let v = Validate.check db_spread ccs in
  Printf.printf
    "CC fidelity with histograms: %.1f%% exact (still no negative errors: %.1f%%)\n"
    (100.0 *. v.Validate.exact_fraction)
    (100.0 *. v.Validate.negative_fraction);
  Printf.printf "integrity-repair additions: %d (corner) vs %d (histogram)\n"
    e_plain e_spread;
  Printf.printf "summary rows: %d\n"
    (Summary.summary_rows r_spread.Pipeline.summary);
  print_endline
    "note: dimension-owned columns improve sharply; fact-owned columns are\n\
     limited by the LP's freedom to place unconstrained mass across regions\n\
     - guiding the LP objective with histogram mass is the natural next step."

(* ---- Robustness: fault injection and graceful degradation ---- *)

let robust () =
  header "Robustness: graceful degradation under faults"
    "not in the paper: a production regenerator must survive conflicting \
     CCs and starved solver budgets without losing the whole run";
  let module Cc = Hydra_workload.Cc in
  let ccs = Lazy.force wls_ccs in
  let sizes = Lazy.force tpcds_sizes in
  let summarize label (r : Pipeline.result) =
    let d = r.Pipeline.diagnostics in
    Printf.printf "%-26s %2d exact %2d relaxed %2d fallback  (%.2fs)\n" label
      d.Pipeline.exact_views d.Pipeline.relaxed_views d.Pipeline.fallback_views
      r.Pipeline.total_seconds;
    List.iter
      (fun (v : Pipeline.view_stats) ->
        match v.Pipeline.status with
        | Pipeline.Exact -> ()
        | Pipeline.Relaxed vs ->
            Printf.printf "    %-20s relaxed, %d violated CC(s)\n"
              v.Pipeline.rel (List.length vs)
        | Pipeline.Fallback reason ->
            Printf.printf "    %-20s fallback: %s\n" v.Pipeline.rel reason)
      r.Pipeline.views
  in
  let clean = Pipeline.regenerate ~sizes T.schema ccs in
  summarize "clean workload" clean;
  (* a CC contradicting one the client also reported: same predicate,
     three times the cardinality *)
  let pick =
    match
      List.find_opt
        (fun (c : Cc.t) ->
          not
            (Hydra_rel.Predicate.equal c.Cc.predicate Hydra_rel.Predicate.true_))
        ccs
    with
    | Some c -> c
    | None -> List.hd ccs
  in
  let conflict =
    Cc.make ~group_by:pick.Cc.group_by pick.Cc.relations pick.Cc.predicate
      ((3 * pick.Cc.card) + 1)
  in
  let r = Pipeline.regenerate ~sizes T.schema (conflict :: ccs) in
  summarize "conflicting CC injected" r;
  let db = Tuple_gen.materialize r.Pipeline.summary in
  let v = Validate.check db ccs in
  Printf.printf
    "  fidelity on the remaining CCs: %.1f%% exact, max |err| %.2f%%\n"
    (100.0 *. v.Validate.exact_fraction)
    (100.0 *. v.Validate.max_abs_error);
  (* starved integer search: every view must still land somewhere *)
  summarize "zero node budget"
    (Pipeline.regenerate ~sizes ~max_nodes:0 ~retries:0 T.schema ccs);
  (* expired wall-clock deadline: the run completes degraded, not never *)
  summarize "expired deadline"
    (Pipeline.regenerate ~sizes ~deadline_s:0.0 T.schema ccs);
  (* ---- crash safety: supervised retries and journaled resume ---- *)
  let module Chaos = Hydra_chaos.Chaos in
  let module Supervisor = Hydra_par.Supervisor in
  let quiet =
    { Supervisor.default_policy with Supervisor.sleep = (fun _ -> ()) }
  in
  let summary_bytes s =
    let path = Filename.temp_file "hydra_bench_robust" ".summary" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Summary.save path s;
        slurp path)
  in
  let clean_bytes = summary_bytes clean.Pipeline.summary in
  (* one injected transient solver fault: the supervisor retries it and
     the artifact is indistinguishable from the undisturbed run *)
  let retried =
    Chaos.with_plan
      { Chaos.site = "solve"; kind = Chaos.Transient; after = 1; times = 1 }
      (fun () -> Pipeline.regenerate ~sizes ~supervision:quiet T.schema ccs)
  in
  let retried_tasks =
    List.length
      (List.filter
         (fun (v : Pipeline.view_stats) -> v.Pipeline.attempts > 1)
         retried.Pipeline.views)
  in
  let retry_identical =
    String.equal clean_bytes (summary_bytes retried.Pipeline.summary)
  in
  Printf.printf
    "transient solver fault:    %d task(s) retried, output identical: %b\n"
    retried_tasks retry_identical;
  (* simulated crash on the second solve, then a journaled resume *)
  let state_dir = Filename.temp_file "hydra_bench_state" "" in
  Sys.remove state_dir;
  let cleanup () =
    if Sys.file_exists state_dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat state_dir f))
        (Sys.readdir state_dir);
      Unix.rmdir state_dir
    end
  in
  Fun.protect ~finally:cleanup (fun () ->
      Chaos.arm
        { Chaos.site = "solve"; kind = Chaos.Crash; after = 2; times = 1 };
      let crash_interrupted =
        match
          Pipeline.regenerate ~sizes ~state_dir ~supervision:quiet T.schema
            ccs
        with
        | _ -> false
        | exception Chaos.Crashed _ -> true
      in
      Chaos.disarm ();
      let resumed =
        Pipeline.regenerate ~sizes ~state_dir ~supervision:quiet T.schema ccs
      in
      let replayed_views =
        List.length
          (List.filter
             (fun (v : Pipeline.view_stats) ->
               v.Pipeline.tier = Hydra_core.Formulate.State)
             resumed.Pipeline.views)
      in
      let resume_identical =
        String.equal clean_bytes (summary_bytes resumed.Pipeline.summary)
      in
      Printf.printf
        "crash at solve pass 2:     interrupted: %b; resume replayed %d \
         view(s), output identical: %b\n"
        crash_interrupted replayed_views resume_identical;
      [
        ("crash_interrupted", Json.Bool crash_interrupted);
        ("retried_tasks", Json.Int retried_tasks);
        ("retry_identical", Json.Bool retry_identical);
        ("replayed_views", Json.Int replayed_views);
        ("resume_identical", Json.Bool resume_identical);
      ])

(* ---- Bechamel micro-benchmarks ---- *)

let micro () =
  header "Micro-benchmarks (Bechamel)"
    "per-operation costs of the pipeline stages";
  let open Bechamel in
  let iv = Hydra_rel.Interval.make in
  let person_attrs = [| "age"; "salary" |] in
  let person_domains = [| iv 0 80; iv 0 80 |] in
  let person_ccs =
    [|
      Hydra_rel.Predicate.of_conjuncts
        [ [ ("age", iv 0 40); ("salary", iv 0 40) ] ];
      Hydra_rel.Predicate.of_conjuncts
        [ [ ("age", iv 20 60); ("salary", iv 20 60) ] ];
      Hydra_rel.Predicate.true_;
    |]
  in
  let person_partition () =
    Hydra_core.Region.optimal_partition ~attrs:person_attrs
      ~domains:person_domains person_ccs
  in
  let person_lp () =
    let lp = Hydra_lp.Lp.create () in
    let y1 = Hydra_lp.Lp.add_var lp () in
    let y2 = Hydra_lp.Lp.add_var lp () in
    let y3 = Hydra_lp.Lp.add_var lp () in
    let y4 = Hydra_lp.Lp.add_var lp () in
    Hydra_lp.Lp.add_eq_count lp [ y1; y2 ] 1000;
    Hydra_lp.Lp.add_eq_count lp [ y2; y3 ] 2000;
    Hydra_lp.Lp.add_eq_count lp [ y1; y2; y3; y4 ] 8000;
    Hydra_lp.Simplex.solve lp
  in
  (* a mid-size real LP: the JOB movie_info view *)
  let job_view =
    let ccs_full =
      Pipeline.complete_size_ccs J.schema (Lazy.force job_ccs) (J.sizes ~sf)
    in
    let views = Hydra_core.Preprocess.run J.schema ccs_full in
    List.find
      (fun (v : Hydra_core.Preprocess.view) ->
        v.Hydra_core.Preprocess.vrel = "movie_info")
      views
  in
  let toy_summary =
    let spec =
      Hydra_workload.Cc_parser.parse
        {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 400;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
cc |sigma(S.A in [20,60) and T.C in [2,3))(R join S join T)| = 30000;
|}
    in
    (Pipeline.regenerate spec.Hydra_workload.Cc_parser.schema
       spec.Hydra_workload.Cc_parser.ccs)
      .Pipeline.summary
  in
  let dyn_db = Tuple_gen.dynamic toy_summary in
  let big = Bigint.of_string "123456789123456789123456789" in
  let tests =
    Test.make_grouped ~name:"hydra"
      [
        Test.make ~name:"bigint-mul-27digit"
          (Staged.stage (fun () -> Bigint.mul big big));
        Test.make ~name:"region-partition-person"
          (Staged.stage person_partition);
        Test.make ~name:"simplex-person-fig4b" (Staged.stage person_lp);
        Test.make ~name:"solve-view-job-movie_info"
          (Staged.stage (fun () ->
               Hydra_core.Formulate.solve_view_robust job_view));
        Test.make ~name:"materialize-toy-82k-tuples"
          (Staged.stage (fun () -> Tuple_gen.materialize toy_summary));
        Test.make ~name:"dynamic-scan-80k-tuples"
          (Staged.stage (fun () ->
               Hydra_engine.Executor.aggregate_sum dyn_db "R" "S_fk"));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] ->
          let pretty =
            if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          Printf.printf "  %-32s %12s/run\n" name pretty
      | _ -> Printf.printf "  %-32s (no estimate)\n" name)
    (List.sort compare rows)

(* ---- Parallel regeneration speedup (the hydra.par domain pool) ---- *)

let par () =
  header "Parallel regeneration: domain-pool speedup (WLc end to end)"
    "not in the paper: regenerate + materialize at jobs = 1, 2, 4, ...; \
     the determinism contract (identical summary bytes and per-view \
     statuses at every width) is asserted, not assumed";
  let ccs = Lazy.force wlc_ccs in
  let sizes = Lazy.force tpcds_sizes in
  let summary_bytes s =
    let path = Filename.temp_file "hydra_bench_par" ".summary" in
    Summary.save path s;
    let ic = open_in_bin path in
    let b =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Sys.remove path;
    b
  in
  let statuses r =
    List.map
      (fun (v : Pipeline.view_stats) ->
        (v.Pipeline.rel, Pipeline.status_word v.Pipeline.status))
      r.Pipeline.views
  in
  let run jobs =
    let (r, db), dt =
      time (fun () ->
          let r = Pipeline.regenerate ~sizes ~jobs T.schema ccs in
          let db = Tuple_gen.materialize ~jobs r.Pipeline.summary in
          (r, db))
    in
    ignore db;
    (summary_bytes r.Pipeline.summary, statuses r, dt)
  in
  let widths =
    let top = max 4 (Pool.default_jobs ()) in
    let rec up acc w = if w > top then List.rev acc else up (w :: acc) (2 * w) in
    up [] 1
  in
  let base_bytes, base_statuses, base_dt = run 1 in
  Printf.printf "machine: %d recommended domain(s)\n"
    (Domain.recommended_domain_count ());
  Printf.printf "%8s %12s %10s  %s\n" "jobs" "seconds" "speedup" "output";
  let row jobs dt same =
    Printf.printf "%8d %11.2fs %9.2fx  %s\n" jobs dt (base_dt /. dt)
      (if same then "identical" else "DIVERGED")
  in
  row 1 base_dt true;
  let curve =
    List.filter_map
      (fun jobs ->
        if jobs = 1 then
          Some
            (Json.Obj
               [
                 ("jobs", Json.Int 1);
                 ("seconds", Json.Float base_dt);
                 ("speedup", Json.Float 1.0);
               ])
        else begin
          let bytes, sts, dt = run jobs in
          let same = bytes = base_bytes && sts = base_statuses in
          row jobs dt same;
          if not same then begin
            Printf.eprintf
              "par: output at jobs=%d diverged from jobs=1 — determinism \
               contract broken\n"
              jobs;
            exit 1
          end;
          Some
            (Json.Obj
               [
                 ("jobs", Json.Int jobs);
                 ("seconds", Json.Float dt);
                 ("speedup", Json.Float (base_dt /. dt));
               ])
        end)
      widths
  in
  [ ("jobs_curve", Json.List curve) ]

(* ---- Cache: cold vs warm incremental regeneration (hydra.cache) ---- *)

(* best-effort cleanup of a scratch cache directory *)
let remove_cache_dir dir =
  try
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  with _ -> ()

(* The drift leg: JOB summarized cold in float-first mode on a fresh
   cache, then re-summarized after the client drifts from sf=100 to
   sf=110 — CCs re-extracted, identical LP structure, so every solved
   view warm-starts from a structural hint. CODD factor 9 (hbench's
   seed 1) leaves five of the hints primal infeasible; the dual phase
   repairs them. *)
let drift_leg () =
  let module Cache = Hydra_cache.Cache in
  let module Simplex = Hydra_lp.Simplex in
  let k = 9 in
  let scaled_ccs db =
    Workload.scale_ccs (float_of_int k)
      (Workload.extract_ccs ~jobs:1 db (Lazy.force job_wl))
  in
  let dir = Filename.temp_file "hydra_bench_drift" "" in
  Sys.remove dir;
  let cache = Cache.create ~dir in
  let run sf ccs =
    Pipeline.regenerate
      ~sizes:(List.map (fun (r, n) -> (r, n * k)) (J.sizes ~sf))
      ~jobs:1 ~solve_mode:Simplex.Float_first ~cache J.schema ccs
  in
  let cold, cold_t = time (fun () -> run sf (scaled_ccs (Lazy.force job_db))) in
  let drifted = scaled_ccs (J.generate ~sf:110 ()) in
  let counters =
    [ "cache.warm_hit"; "simplex.dual_pivots"; "simplex.float_pivots";
      "simplex.verify_repairs" ]
  in
  let values () =
    List.map (fun c -> Obs.counter_value (Obs.counter c)) counters
  in
  let before = values () in
  let re, re_t = time (fun () -> run 110 drifted) in
  remove_cache_dir dir;
  let delta = List.combine counters (List.map2 ( - ) (values ()) before) in
  let all_exact =
    List.for_all
      (fun (r : Pipeline.result) ->
        List.for_all
          (fun (v : Pipeline.view_stats) -> v.Pipeline.status = Pipeline.Exact)
          r.Pipeline.views)
      [ cold; re ]
  in
  let count c = List.assoc c delta in
  Printf.printf "drift: cold %.3fs, re-summary %.3fs; %d warm hints, %d dual \
                 pivots, %d float pivots, %d verify repairs\n"
    cold_t re_t (count "cache.warm_hit") (count "simplex.dual_pivots")
    (count "simplex.float_pivots") (count "simplex.verify_repairs");
  List.iter
    (fun (v : Pipeline.view_stats) ->
      match List.assoc_opt "simplex.dual_pivots" v.Pipeline.metrics with
      | Some n -> Printf.printf "  %-18s %3.0f dual pivots\n" v.Pipeline.rel n
      | None -> ())
    re.Pipeline.views;
  if not all_exact then begin
    Printf.eprintf "cache: a drift-leg view fell off the Exact rung\n";
    exit 1
  end;
  (* seconds are resource keys; the tallies and the flag are exact *)
  ( "drift",
    Json.Obj
      [
        ("cold", Json.Obj [ ("seconds", Json.Float cold_t) ]);
        ("resummary", Json.Obj [ ("seconds", Json.Float re_t) ]);
        ("warm_hints", Json.Int (count "cache.warm_hit"));
        ("dual_pivots", Json.Int (count "simplex.dual_pivots"));
        ("float_pivots", Json.Int (count "simplex.float_pivots"));
        ("verify_repairs", Json.Int (count "simplex.verify_repairs"));
        ("all_exact", Json.Bool all_exact);
      ] )

let cache_bench () =
  header "Cache: content-addressed solve cache, cold vs warm (WLs)"
    "not in the paper: re-running an unchanged workload replays every \
     per-view solve from the on-disk cache — 100% hits, byte-identical \
     summary, no solver work; a drifted JOB client re-summarizes from \
     warm hints";
  let module Cache = Hydra_cache.Cache in
  let drift = drift_leg () in
  (* the metrics snapshot covers the WLs legs alone; the drift leg
     gates its own tallies above *)
  Obs.reset ();
  let ccs = Lazy.force wls_ccs in
  let sizes = Lazy.force tpcds_sizes in
  let dir = Filename.temp_file "hydra_bench_cache" "" in
  Sys.remove dir;
  let cache = Cache.create ~dir in
  let summary_bytes s =
    let path = Filename.temp_file "hydra_bench_cache" ".summary" in
    Summary.save path s;
    let b = slurp path in
    Sys.remove path;
    b
  in
  let statuses (r : Pipeline.result) =
    List.map
      (fun (v : Pipeline.view_stats) ->
        (v.Pipeline.rel, Pipeline.status_word v.Pipeline.status))
      r.Pipeline.views
  in
  let run () = Pipeline.regenerate ~sizes ~cache T.schema ccs in
  let cold, cold_t = time run in
  let after_cold = Cache.stats cache in
  let warm, warm_t = time run in
  let after_warm = Cache.stats cache in
  let warm_hits = after_warm.Cache.hits - after_cold.Cache.hits in
  let warm_misses = after_warm.Cache.misses - after_cold.Cache.misses in
  let identical =
    summary_bytes cold.Pipeline.summary = summary_bytes warm.Pipeline.summary
    && statuses cold = statuses warm
  in
  Printf.printf "cold: %.3fs  (%d misses, %d entries stored)\n" cold_t
    after_cold.Cache.misses after_cold.Cache.stores;
  Printf.printf "warm: %.3fs  (%d hits, %d misses)  speedup %.1fx\n" warm_t
    warm_hits warm_misses
    (cold_t /. Float.max warm_t 1e-9);
  Printf.printf "warm summary %s\n"
    (if identical then "byte-identical to cold" else "DIVERGED from cold");
  remove_cache_dir dir;
  if not identical then begin
    Printf.eprintf
      "cache: warm regeneration diverged from cold — replay contract broken\n";
    exit 1
  end;
  if warm_misses > 0 || warm_hits <> after_cold.Cache.misses then begin
    Printf.eprintf
      "cache: warm run was not served entirely from the cache (%d hits, %d \
       misses; cold had %d misses)\n"
      warm_hits warm_misses after_cold.Cache.misses;
    exit 1
  end;
  (* cold/warm seconds are resource-keyed (bounded, not exact) in the
     gate; the hit/miss/store tallies and the identity flag are exact *)
  [
    ("cold", Json.Obj [ ("seconds", Json.Float cold_t) ]);
    ("warm", Json.Obj [ ("seconds", Json.Float warm_t) ]);
    ("views", Json.Int (List.length cold.Pipeline.views));
    ("cold_misses", Json.Int after_cold.Cache.misses);
    ("cold_stores", Json.Int after_cold.Cache.stores);
    ("warm_hits", Json.Int warm_hits);
    ("warm_misses", Json.Int warm_misses);
    ("identical", Json.Bool identical);
    drift;
  ]

(* ---- Obs: exporter-stack overhead, enabled vs disabled ---- *)

let obs_bench () =
  header "Obs: exporter-stack overhead, enabled vs disabled (WLs)"
    "not in the paper: the observation-is-pure contract, priced — run \
     ledger, progress ticker, Prometheus export and span collection must \
     cost a bounded factor and change no output byte";
  let module Ledger = Hydra_obs.Ledger in
  let module Progress = Hydra_obs.Progress in
  let module Flame = Hydra_obs.Flame in
  let module Durable_io = Hydra_durable.Durable_io in
  let ccs = Lazy.force wls_ccs in
  let sizes = Lazy.force tpcds_sizes in
  let summary_bytes s =
    let path = Filename.temp_file "hydra_bench_obs" ".summary" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Summary.save path s;
        slurp path)
  in
  let run () = Pipeline.regenerate ~sizes T.schema ccs in
  let best f =
    let t = ref infinity and v = ref None in
    for _ = 1 to 2 do
      let x, dt = time f in
      v := Some x;
      if dt < !t then t := dt
    done;
    (Option.get !v, !t)
  in
  (* baseline: the registry off entirely (the shipping default) *)
  Obs.set_enabled false;
  let off, off_t = best run in
  (* full stack: span collector sink, live Prometheus ticker, and a
     ledger archive of the run — everything `--obs-dir --progress
     --export chrome=FILE` would turn on *)
  Obs.set_enabled true;
  let collector = Flame.create () in
  Obs.add_sink (Flame.sink collector);
  let scratch = Filename.temp_file "hydra_bench_obs" "" in
  Sys.remove scratch;
  Durable_io.mkdir_p scratch;
  let cleanup () =
    try
      Array.iter
        (fun f -> Sys.remove (Filename.concat scratch f))
        (Sys.readdir scratch);
      Unix.rmdir scratch
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let prom = Filename.concat scratch "metrics.prom" in
      let ticker = Progress.start ~prom_out:prom ~period_s:0.05 () in
      let on, on_t = best run in
      Progress.stop ticker;
      let prom_written = Sys.file_exists prom in
      let id =
        (Ledger.record ~dir:scratch
           (Pipeline.to_ledger ~subcommand:"bench-obs" ~spec_digest:"wls"
              ~jobs:1 ~exit_code:0 ~spans:(Flame.spans collector) on))
          .Ledger.e_id
      in
      let listing = Ledger.runs ~dir:scratch in
      let archived =
        List.exists
          (fun (e : Ledger.entry) -> e.Ledger.e_id = id)
          listing.Ledger.l_entries
        && listing.Ledger.l_corrupt = []
      in
      let identical = summary_bytes off.Pipeline.summary
                      = summary_bytes on.Pipeline.summary in
      let ratio = on_t /. Float.max off_t 1e-9 in
      Printf.printf "disabled: %.3fs   enabled (full stack): %.3fs\n" off_t
        on_t;
      Printf.printf "overhead: %.2fx   summary %s\n" ratio
        (if identical then "byte-identical" else "DIVERGED");
      Printf.printf "ledger: run %s archived and re-listed: %b   %s: %b\n" id
        archived "metrics.prom written" prom_written;
      if not identical then begin
        Printf.eprintf
          "obs: enabling the exporter stack changed the summary — \
           observation-is-pure contract broken\n";
        exit 1
      end;
      if not (archived && prom_written) then begin
        Printf.eprintf "obs: exporter stack did not produce its artifacts\n";
        exit 1
      end;
      (* the ratio is a resource key: `bench check` bounds it against the
         committed baseline instead of demanding an exact match *)
      [
        ("disabled", Json.Obj [ ("seconds", Json.Float off_t) ]);
        ("enabled", Json.Obj [ ("seconds", Json.Float on_t) ]);
        ("overhead_ratio", Json.Float ratio);
        ("views", Json.Int (List.length on.Pipeline.views));
        ("identical", Json.Bool identical);
        ("archived", Json.Bool archived);
        ("prom_written", Json.Bool prom_written);
      ])

(* ---- Synth: solve-time distribution over synthesized workloads ---- *)

let synth_bench () =
  header "Synth: regeneration cost over a seeded synthesized sweep"
    "not in the paper: the hydra.synth generator feeding `hydra fuzz`; \
     per-workload solve-time distribution plus the sweep's deterministic \
     identity (shapes, CC counts, spec digests)";
  let module Synth = Hydra_synth.Synth in
  let module Rng = Hydra_synth.Rng in
  let count = 40 and sweep_seed = 1 in
  let star = ref 0 and snowflake = ref 0 and chain = ref 0 in
  let total_ccs = ref 0 in
  let digest_buf = Buffer.create (count * 32) in
  let times =
    List.init count (fun i ->
        let t = Synth.generate ~seed:(Rng.mix2 sweep_seed i) () in
        (match t.Synth.shape_drawn with
        | Synth.Star -> incr star
        | Synth.Snowflake -> incr snowflake
        | Synth.Chain -> incr chain);
        total_ccs := !total_ccs + List.length t.Synth.ccs;
        Buffer.add_string digest_buf (Synth.digest t);
        let _, dt =
          time (fun () -> Pipeline.regenerate t.Synth.schema t.Synth.ccs)
        in
        dt)
  in
  let sorted = List.sort compare times in
  let arr = Array.of_list sorted in
  let pct p = arr.(min (count - 1) (p * count / 100)) in
  let total_t = List.fold_left ( +. ) 0.0 times in
  (* the sweep's identity: one digest over every workload's spec digest *)
  let sweep_digest = Digest.to_hex (Digest.string (Buffer.contents digest_buf)) in
  Printf.printf
    "%d workloads (sweep seed %d): %d star, %d snowflake, %d chain; %d CCs\n"
    count sweep_seed !star !snowflake !chain !total_ccs;
  Printf.printf
    "regenerate: p50 %.4fs  p95 %.4fs  max %.4fs  total %.2fs\n"
    (pct 50) (pct 95) arr.(count - 1) total_t;
  Printf.printf "sweep digest: %s\n" sweep_digest;
  [
    ("workloads", Json.Int count);
    ("shape_star", Json.Int !star);
    ("shape_snowflake", Json.Int !snowflake);
    ("shape_chain", Json.Int !chain);
    ("total_ccs", Json.Int !total_ccs);
    ("sweep_digest", Json.String sweep_digest);
    ("p50_seconds", Json.Float (pct 50));
    ("p95_seconds", Json.Float (pct 95));
    ("max_seconds", Json.Float arr.(count - 1));
    ("total_seconds", Json.Float total_t);
  ]

(* ---- Smoke: CI-sized end-to-end run validating the obs contract ---- *)

let smoke () =
  header "Smoke: tiny pipeline exercising every instrumented layer"
    "not in the paper: CI target; its BENCH artifact is re-parsed and \
     checked below";
  let module Plan = Hydra_engine.Plan in
  let module Executor = Hydra_engine.Executor in
  let spec =
    Hydra_workload.Cc_parser.parse
      {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 400;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
cc |sigma(S.A in [20,60) and T.C in [2,3))(R join S join T)| = 30000;
|}
  in
  let schema = spec.Hydra_workload.Cc_parser.schema in
  let r = Pipeline.regenerate schema spec.Hydra_workload.Cc_parser.ccs in
  Printf.printf "pipeline: %.2fs total (%.2fs preprocess, %.2fs assemble)\n"
    r.Pipeline.total_seconds r.Pipeline.preprocess_seconds
    r.Pipeline.assemble_seconds;
  let db = Tuple_gen.materialize r.Pipeline.summary in
  let iv = Hydra_rel.Interval.make in
  let plan =
    Plan.Group_by
      ( [ "T.C" ],
        Plan.Filter
          ( Hydra_rel.Predicate.of_conjuncts [ [ ("S.A", iv 20 60) ] ],
            Plan.Join
              ( Plan.Join
                  ( Plan.Scan "R",
                    Plan.Scan "S",
                    { Plan.fk_col = "R.S_fk"; pk_rel = "S" } ),
                Plan.Scan "T",
                { Plan.fk_col = "R.T_fk"; pk_rel = "T" } ) ) )
  in
  let card_stored = Executor.cardinality db plan in
  (* the same plan over the dynamic generator drives the datagen scan *)
  let dyn = Tuple_gen.dynamic r.Pipeline.summary in
  let card_dyn = Executor.cardinality dyn plan in
  if card_stored <> card_dyn then begin
    Printf.eprintf "smoke: stored/dynamic cardinality mismatch: %d vs %d\n"
      card_stored card_dyn;
    exit 1
  end;
  Printf.printf "plan cardinality: %d (stored) = %d (dynamic)\n" card_stored
    card_dyn;
  let total = Executor.aggregate_sum dyn "R" "S_fk" in
  Printf.printf "dynamic-scan aggregate over R.S_fk: %d\n" total;
  let v = Validate.check db spec.Hydra_workload.Cc_parser.ccs in
  Format.printf "fidelity: %a@." Validate.pp v

(* ---- Audit: volumetric-accuracy accounting end to end ---- *)

let audit () =
  header "Audit: per-operator cardinality accounting (hydra.audit)"
    "not in the paper: expected-vs-observed rows for every plan operator; \
     the per-relation roll-up must reconcile exactly with Validate";
  let module Executor = Hydra_engine.Executor in
  let spec =
    Hydra_workload.Cc_parser.parse
      {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 400;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
cc |sigma(S.A in [20,60) and T.C in [2,3))(R join S join T)| = 30000;
|}
  in
  let ccs = spec.Hydra_workload.Cc_parser.ccs in
  let r = Pipeline.regenerate spec.Hydra_workload.Cc_parser.schema ccs in
  let dyn = Tuple_gen.dynamic r.Pipeline.summary in
  let trail = Audit.create () in
  let v = Validate.check ~audit:trail dyn ccs in
  (* reconcile on the validation records only; the aggregate probe below
     adds an edge Validate never measures *)
  let reconciles =
    Validate.reconciles_audit v (Audit.by_relation (Audit.records trail))
  in
  if not reconciles then begin
    Printf.eprintf
      "audit: per-relation roll-up does not reconcile with Validate\n";
    exit 1
  end;
  let expected_r =
    List.find_map
      (fun (cc : Hydra_workload.Cc.t) ->
        if cc.Hydra_workload.Cc.relations = [ "R" ] then
          Some cc.Hydra_workload.Cc.card
        else None)
      ccs
  in
  let sum =
    Executor.aggregate_sum_audited ~query:"sum(R.S_fk)" trail
      ~expected:expected_r dyn "R" "S_fk"
  in
  let records = Audit.records trail in
  let ops, annotated, exact, max_err = Audit.summary_stats records in
  Printf.printf
    "audited %d operators: %d annotated, %d exact, max |rel err| %.2f%%\n" ops
    annotated exact (100.0 *. max_err);
  Printf.printf "per-relation roll-up reconciles with Validate: %b\n"
    reconciles;
  Printf.printf "audited dynamic-scan aggregate over R.S_fk: %d\n" sum;
  [
    ( "audit",
      Json.Obj
        [
          ("ops", Json.Int ops);
          ("annotated", Json.Int annotated);
          ("exact", Json.Int exact);
          ("max_abs_rel_error", Json.Float max_err);
          ("reconciles", Json.Bool reconciles);
        ] );
  ]

(* re-parse the smoke artifact with the obs JSON codec and check the
   fields the observability contract (DESIGN.md Sec. 6) promises *)
let validate_smoke_artifact path =
  let fail m =
    Printf.eprintf "%s: validation failed: %s\n" path m;
    exit 1
  in
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let doc =
    match Json.parse s with Ok d -> d | Error m -> fail ("parse: " ^ m)
  in
  let field obj name =
    match Json.member name obj with
    | Some v -> v
    | None -> fail (Printf.sprintf "missing field %S" name)
  in
  let metrics = field doc "metrics" in
  let counters = field metrics "counters" in
  let spans = field metrics "spans" in
  let counter name =
    match Json.member name counters with
    | Some (Json.Int n) -> n
    | _ -> fail (Printf.sprintf "missing counter %S" name)
  in
  let span_seconds name =
    match Json.member name spans with
    | Some sp -> (
        match Json.member "seconds" sp with
        | Some (Json.Float x) -> x
        | Some (Json.Int x) -> float_of_int x
        | _ -> fail (Printf.sprintf "span %S has no seconds" name))
    | None -> fail (Printf.sprintf "missing span %S" name)
  in
  List.iter
    (fun name ->
      if span_seconds name < 0.0 then
        fail (Printf.sprintf "span %S has negative duration" name))
    [
      "bench.smoke"; "pipeline.preprocess"; "pipeline.view"; "view.formulate";
      "view.solve"; "view.merge"; "pipeline.assemble"; "tuple_gen.materialize";
      "exec.scan"; "exec.filter"; "exec.join"; "exec.group_by";
      "exec.aggregate_sum";
    ];
  List.iter
    (fun name ->
      if counter name <= 0 then
        fail (Printf.sprintf "counter %S is zero" name))
    [
      "simplex.solves"; "simplex.iterations"; "bnb.nodes";
      "engine.scan.rows_out"; "engine.datagen.rows_out";
      "engine.join.rows_out"; "engine.filter.rows_out";
      "engine.group_by.rows_out"; "engine.aggregate.rows_in";
      "tuple_gen.rows_materialized"; "pipeline.views.exact";
    ];
  Printf.printf
    "%s ok: phase spans, solver counters and engine cardinalities present\n"
    path

(* ---- driver: every target runs in a span and leaves an artifact ---- *)

(* ---- Serve: live telemetry endpoint overhead and scrape latency ---- *)

let serve_bench () =
  header "Serve: live endpoint attached to a run, priced"
    "not in the paper: the hydra.net telemetry endpoint — a run scraped \
     over HTTP while it executes must cost a bounded factor, answer \
     scrapes fast, and change no output byte";
  let module Serve = Hydra_obs.Serve in
  let module Resource = Hydra_obs.Resource in
  let module Server = Hydra_net.Server in
  let module Client = Hydra_net.Client in
  let ccs = Lazy.force wls_ccs in
  let sizes = Lazy.force tpcds_sizes in
  let summary_bytes s =
    let path = Filename.temp_file "hydra_bench_serve" ".summary" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Summary.save path s;
        slurp path)
  in
  let run () = Pipeline.regenerate ~sizes T.schema ccs in
  let best f =
    let t = ref infinity and v = ref None in
    for _ = 1 to 2 do
      let x, dt = time f in
      v := Some x;
      if dt < !t then t := dt
    done;
    (Option.get !v, !t)
  in
  (* baseline: registry on (run_target enabled it) but no endpoint, so
     the ratio prices the server + sampler + scraper alone *)
  let off, off_t = best run in
  let srv =
    let t0 = Mclock.now () in
    let current () = Hydra_obs.Ledger.current ~seconds:(Mclock.now () -. t0) () in
    match Server.start ~port:0 (Serve.handler ~current ()) with
    | Ok s -> s
    | Error m ->
        Printf.eprintf "serve bench: %s\n" m;
        exit 1
  in
  let port = Server.port srv in
  let sampler = Resource.start ~period_s:0.05 () in
  let scraping = Atomic.make true in
  let bad = Atomic.make 0 in
  let scraper =
    Domain.spawn (fun () ->
        let rec loop n =
          if Atomic.get scraping then begin
            (match Client.get ~port "/metrics" with
            | Ok (200, _) -> ()
            | _ -> Atomic.incr bad);
            (match Client.get ~port "/progress" with
            | Ok (200, _) -> ()
            | _ -> Atomic.incr bad);
            loop (n + 2)
          end
          else n
        in
        loop 0)
  in
  let on, on_t = best run in
  Atomic.set scraping false;
  let scrapes = Domain.join scraper in
  Resource.stop sampler;
  (* steady-state scrape latency against the final registry *)
  let lat =
    Array.init 40 (fun _ ->
        let t0 = Mclock.now () in
        (match Client.get ~port "/metrics" with
        | Ok (200, _) -> ()
        | _ -> Atomic.incr bad);
        Mclock.now () -. t0)
  in
  Array.sort compare lat;
  let pct p =
    lat.(min
           (Array.length lat - 1)
           (int_of_float (p *. float_of_int (Array.length lat))))
  in
  let p50 = pct 0.50 and p95 = pct 0.95 in
  let healthz_ok =
    match Client.get ~port "/healthz" with
    | Ok (200, "ok\n") -> true
    | _ -> false
  in
  let metrics_ok =
    match Client.get ~port "/metrics" with
    | Ok (200, body) ->
        String.length body > 7 && String.sub body 0 7 = "# TYPE "
    | _ -> false
  in
  Server.stop srv;
  let scrapes_ok = Atomic.get bad = 0 && scrapes > 0 in
  let identical =
    summary_bytes off.Pipeline.summary = summary_bytes on.Pipeline.summary
  in
  let ratio = on_t /. Float.max off_t 1e-9 in
  let rss =
    match
      List.assoc_opt "process.rss_bytes" (Obs.flatten (Obs.snapshot ()))
    with
    | Some v -> v
    | None -> 0.0
  in
  Printf.printf "unattached: %.3fs   serve-attached (scraped): %.3fs\n" off_t
    on_t;
  Printf.printf "overhead: %.2fx   %d scrape(s) mid-run   summary %s\n" ratio
    scrapes
    (if identical then "byte-identical" else "DIVERGED");
  Printf.printf "scrape latency: p50 %.4fs  p95 %.4fs   rss %.0f bytes\n" p50
    p95 rss;
  if not identical then begin
    Printf.eprintf
      "serve: attaching the endpoint changed the summary — \
       observation-is-pure contract broken\n";
    exit 1
  end;
  if not (healthz_ok && metrics_ok && scrapes_ok) then begin
    Printf.eprintf "serve: endpoint misbehaved under load\n";
    exit 1
  end;
  (* ratio, latencies and gauges are resource keys (bounded, not exact);
     the purity/route booleans must match the baseline exactly *)
  [
    ("unattached", Json.Obj [ ("seconds", Json.Float off_t) ]);
    ("attached", Json.Obj [ ("seconds", Json.Float on_t) ]);
    ("overhead_ratio", Json.Float ratio);
    ("scrape_p50_seconds", Json.Float p50);
    ("scrape_p95_seconds", Json.Float p95);
    ("rss_bytes", Json.Float rss);
    ("identical", Json.Bool identical);
    ("healthz_ok", Json.Bool healthz_ok);
    ("metrics_ok", Json.Bool metrics_ok);
    ("scrapes_ok", Json.Bool scrapes_ok);
  ]

(* ---- Solve: float-first simplex vs all-exact LP engine ---- *)

(* A WLc-style kitchen-sink filter template: one fact relation with five
   filtered attributes and shifted instantiations of four two-attribute
   range templates — the regime where DataSynth's boundary grid explodes
   while region partitioning stays small (Sec. 3.2 vs Fig. 3).
   Cardinalities are those of the uniform instance (one tuple per
   attribute-value combination), so the CC system is consistent by
   construction. *)
let solve_spec_text =
  lazy
    (let dom = 60 in
     let attrs = [| "A"; "B"; "C"; "D"; "E" |] in
     let nattrs = Array.length attrs in
     (* Filters, each a conjunction of ranges [(attr_idx, lo, hi)]: one
        wide single-attribute filter per attribute, then two families of
        three-attribute kitchen-sink boxes instantiated at shifted
        literals. *)
     let filters = ref [] in
     for i = 0 to nattrs - 1 do
       filters := [ (i, 12, 48) ] :: !filters
     done;
     (* two three-attribute kitchen-sink template families, (A,B,C) and
        (C,D,E): three-attribute cliques give DataSynth a three-way
        boundary-product grid, while the chain's single shared attribute
        C keeps the cross-sub-view consistency glue thin. Each box is
        wide in its first attribute and narrow in the other two, so its
        boundary cuts distinguish little outside the box itself. *)
     let shifts = 96 in
     List.iter
       (fun (x, y, z) ->
         for s = 0 to shifts - 1 do
           let w1 = 29 and w2 = 7 and w3 = 9 in
           let lo1 = 7 * s mod (dom - w1) in
           let lo2 = 11 * s mod (dom - w2) in
           let lo3 = 13 * s mod (dom - w3) in
           filters :=
             [ (x, lo1, lo1 + w1); (y, lo2, lo2 + w2); (z, lo3, lo3 + w3) ]
             :: !filters
         done)
       [ (0, 1, 2); (2, 3, 4) ];
     let filters = List.rev !filters in
     (* Cardinalities are those of the uniform instance — one tuple per
        point of the five-way value grid — so the CC system is
        consistent by construction and every count is a product of
        interval widths: the LP's vertices stay (near-)integral, which
        keeps the float shadow's decisions decisive. *)
     let npoints =
       int_of_float (Float.pow (float_of_int dom) (float_of_int nattrs))
     in
     let counts =
       Array.of_list
         (List.map
            (fun ranges ->
              let free = nattrs - List.length ranges in
              List.fold_left
                (fun acc (_, lo, hi) -> acc * (hi - lo))
                (int_of_float
                   (Float.pow (float_of_int dom) (float_of_int free)))
                ranges)
            filters)
     in
     let b = Buffer.create 4096 in
     let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
     add "table F (%s);\n"
       (String.concat ", "
          (Array.to_list
             (Array.map (fun x -> Printf.sprintf "%s int [0,%d)" x dom) attrs)));
     add "cc |F| = %d;\n" npoints;
     List.iteri
       (fun ci ranges ->
         add "cc |sigma(%s)(F)| = %d;\n"
           (String.concat " and "
              (List.map
                 (fun (a, lo, hi) ->
                   Printf.sprintf "F.%s in [%d,%d)" attrs.(a) lo hi)
                 ranges))
           counts.(ci))
       filters;
     Buffer.contents b)

let solve_bench () =
  header "Solve: float-first simplex vs all-exact (wide filter template)"
    "not in the paper: the exact rational simplex replayed in doubles \
     with an exact verification pass — identical summaries at a fraction \
     of the solve cost";
  let module Cc_parser = Hydra_workload.Cc_parser in
  let module Simplex = Hydra_lp.Simplex in
  let spec = Cc_parser.parse (Lazy.force solve_spec_text) in
  let summary_bytes s =
    let path = Filename.temp_file "hydra_bench_solve" ".summary" in
    Summary.save path s;
    let bytes = slurp path in
    Sys.remove path;
    bytes
  in
  let c_float = Obs.counter "simplex.float_pivots" in
  let c_repair = Obs.counter "simplex.verify_repairs" in
  let run mode () =
    Pipeline.regenerate ~solve_mode:mode spec.Cc_parser.schema
      spec.Cc_parser.ccs
  in
  (* min of two runs per mode: both paths are deterministic, so the min
     strips scheduler noise symmetrically *)
  let exact_r, exact_t1 = time (run Simplex.Exact) in
  let _, exact_t2 = time (run Simplex.Exact) in
  let exact_t = Float.min exact_t1 exact_t2 in
  let float_before = Obs.counter_value c_float in
  let ff_r, ff_t1 = time (run Simplex.Float_first) in
  let _, ff_t2 = time (run Simplex.Float_first) in
  let ff_t = Float.min ff_t1 ff_t2 in
  let float_pivots = Obs.counter_value c_float - float_before in
  let repairs = Obs.counter_value c_repair in
  let all_exact (r : Pipeline.result) =
    List.for_all
      (fun (v : Pipeline.view_stats) -> v.Pipeline.status = Pipeline.Exact)
      r.Pipeline.views
  in
  let fact_view (r : Pipeline.result) =
    List.find (fun (v : Pipeline.view_stats) -> v.Pipeline.rel = "F")
      r.Pipeline.views
  in
  let regions = (fact_view exact_r).Pipeline.num_lp_vars in
  let constraints = (fact_view exact_r).Pipeline.num_lp_constraints in
  let grid_cells =
    match
      List.assoc_opt "F"
        (Hydra_datasynth.Datasynth.variable_counts spec.Cc_parser.schema
           spec.Cc_parser.ccs)
    with
    | Some n -> Bigint.to_float n
    | None -> 0.0
  in
  let identical =
    summary_bytes exact_r.Pipeline.summary = summary_bytes ff_r.Pipeline.summary
  in
  let solved = all_exact exact_r && all_exact ff_r in
  let blowup = grid_cells > 10.0 *. float_of_int regions in
  let within_half = ff_t <= 0.5 *. exact_t in
  Printf.printf "fact view: %d regions, %d constraints; DataSynth grid %.3g \
                 cells (%.0fx)\n"
    regions constraints grid_cells
    (grid_cells /. float_of_int (max regions 1));
  Printf.printf "exact:       %.3fs\n" exact_t;
  Printf.printf "float-first: %.3fs  (%.2fx of exact; %d float pivots, %d \
                 verify repairs)\n"
    ff_t (ff_t /. exact_t) float_pivots repairs;
  Printf.printf "summaries %s\n"
    (if identical then "byte-identical across engines"
     else "DIVERGED across engines");
  if not identical then begin
    Printf.eprintf
      "solve: float-first summary diverged from exact — byte-identity \
       contract broken\n";
    exit 1
  end;
  if not solved then begin
    Printf.eprintf "solve: a view fell off the Exact rung\n";
    exit 1
  end;
  if not blowup then begin
    Printf.eprintf
      "solve: template too narrow — grid %.3g is not >10x the %d regions\n"
      grid_cells regions;
    exit 1
  end;
  if not within_half then begin
    Printf.eprintf
      "solve: float-first %.3fs exceeds half of exact %.3fs — speedup \
       contract broken\n"
      ff_t exact_t;
    exit 1
  end;
  (* wall times and their ratio are resource keys (bounded, not exact);
     the partition sizes, pivot/repair tallies and contract booleans are
     exact *)
  [
    ("exact", Json.Obj [ ("seconds", Json.Float exact_t) ]);
    ("float_first", Json.Obj [ ("seconds", Json.Float ff_t) ]);
    ("float_exact_ratio", Json.Float (ff_t /. exact_t));
    ("views", Json.Int (List.length exact_r.Pipeline.views));
    ("lp_regions", Json.Int regions);
    ("lp_constraints", Json.Int constraints);
    ("fact_grid_cells", Json.Float grid_cells);
    ("float_pivots", Json.Int float_pivots);
    ("verify_repairs", Json.Int repairs);
    ("summaries_identical", Json.Bool identical);
    ("grid_blowup_over_10x", Json.Bool blowup);
    ("float_first_within_half", Json.Bool within_half);
  ]

(* most targets only print; `par` also contributes extra artifact fields
   (its speedup curve), so every target returns a field list *)
let plain f () =
  f ();
  []

let targets =
  [
    ("fig9", plain fig9); ("fig10", plain fig10); ("fig11", plain fig11);
    ("fig12", plain fig12); ("fig13", plain fig13); ("fig14", plain fig14);
    ("exabyte", plain exabyte); ("fig15", plain fig15); ("fig16", plain fig16);
    ("fig17", plain fig17); ("ablation", plain ablation);
    ("correlation", plain correlation); ("robust", robust);
    ("par", par); ("micro", plain micro); ("smoke", plain smoke);
    ("audit", audit); ("cache", cache_bench); ("obs", obs_bench);
    ("synth", synth_bench); ("serve", serve_bench); ("solve", solve_bench);
  ]

(* ---- regression gate: compare fresh artifacts against baselines ---- *)

(* resource measurements vary run to run; everything else (cardinalities,
   fidelity, audit roll-ups, speedup shapes are excluded -- see below) is
   deterministic and must match the baseline exactly *)
let resource_key k =
  let suffix s =
    String.length k > String.length s
    && String.sub k (String.length k - String.length s) (String.length s) = s
  in
  match k with
  | "seconds" | "minor_words" | "major_words" | "speedup"
  | "overhead_ratio" | "float_exact_ratio" -> true
  | _ ->
      (* p50_seconds, total_seconds — any wall-clock field; rss_bytes,
         gc.minor_words — any sampled memory gauge *)
      suffix "_seconds" || suffix "_bytes" || suffix "_words"

let check_tolerance () =
  match Sys.getenv_opt "BENCH_CHECK_TOLERANCE" with
  | Some s -> ( try float_of_string s with _ -> 8.0)
  | None -> 8.0

let json_kind = function
  | Json.Null -> "null"
  | Json.Bool _ -> "bool"
  | Json.Int _ -> "int"
  | Json.Float _ -> "float"
  | Json.String _ -> "string"
  | Json.List _ -> "list"
  | Json.Obj _ -> "object"

(* [key] is the field name the values sit under; a resource key only has
   to stay below tolerance * (baseline + eps), everything else is exact *)
let rec json_diff ~tol path key base fresh errs =
  let err fmt =
    Printf.ksprintf (fun m -> errs := (path ^ ": " ^ m) :: !errs) fmt
  in
  let number = function
    | Json.Int n -> Some (float_of_int n)
    | Json.Float x -> Some x
    | _ -> None
  in
  match (number base, number fresh) with
  | Some b, Some f ->
      if resource_key key then begin
        (* a zero resource baseline carries no information — GC word
           counts only reflect completed collections, so a span that
           measured 0 at baseline time can measure real allocation on a
           run with different collection timing; don't gate those *)
        if b > 0.0 then begin
          let ceiling = tol *. (b +. 0.05) in
          if f > ceiling then
            err "%g exceeds %gx baseline %g (ceiling %g)" f tol b ceiling
        end
      end
      else if Float.abs (f -. b) > 1e-9 *. Float.max 1.0 (Float.abs b) then
        err "expected %g, got %g" b f
  | _ -> (
      match (base, fresh) with
      | Json.Null, Json.Null -> ()
      | Json.Bool b, Json.Bool f -> if b <> f then err "expected %b, got %b" b f
      | Json.String b, Json.String f ->
          if b <> f then err "expected %S, got %S" b f
      | Json.List bs, Json.List fs ->
          if List.length bs <> List.length fs then
            err "list length %d, got %d" (List.length bs) (List.length fs)
          else
            List.iteri
              (fun i (b, f) ->
                json_diff ~tol
                  (Printf.sprintf "%s[%d]" path i)
                  key b f errs)
              (List.combine bs fs)
      | Json.Obj bs, Json.Obj fs ->
          List.iter
            (fun (k, bv) ->
              match List.assoc_opt k fs with
              | None ->
                  errs := (path ^ "." ^ k ^ ": missing in fresh artifact")
                          :: !errs
              | Some fv -> json_diff ~tol (path ^ "." ^ k) k bv fv errs)
            bs;
          List.iter
            (fun (k, _) ->
              if not (List.mem_assoc k bs) then
                errs :=
                  (path ^ "." ^ k
                  ^ ": not in baseline (regenerate baselines?)")
                  :: !errs)
            fs
      | _ -> err "expected %s, got %s" (json_kind base) (json_kind fresh))

let baselines_dir () =
  match Sys.getenv_opt "BENCH_BASELINES" with
  | Some d -> d
  | None ->
      if Sys.file_exists "baselines" && Sys.is_directory "baselines" then
        "baselines"
      else "bench/baselines"

let check args =
  let dir = baselines_dir () in
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "bench check: baseline directory %s not found\n" dir;
    exit 1
  end;
  let names =
    match args with
    | [] ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.map Filename.remove_extension
        |> List.sort compare
    | names -> names
  in
  if names = [] then begin
    Printf.eprintf "bench check: no baselines in %s\n" dir;
    exit 1
  end;
  let tol = check_tolerance () in
  let failed = ref false in
  let target_fail name msgs =
    failed := true;
    Printf.printf "check %s: FAIL\n" name;
    List.iter (fun m -> Printf.printf "  %s\n" m) msgs
  in
  List.iter
    (fun name ->
      let bpath = Filename.concat dir (name ^ ".json") in
      let fpath = Printf.sprintf "BENCH_%s.json" name in
      if not (Sys.file_exists bpath) then
        target_fail name [ "no baseline " ^ bpath ]
      else if not (Sys.file_exists fpath) then
        target_fail name
          [
            Printf.sprintf "missing %s (run `hydra-bench %s` first)" fpath
              name;
          ]
      else
        let parse path =
          match Json.parse (slurp path) with
          | Ok d -> Ok d
          | Error m -> Error (path ^ ": parse error: " ^ m)
        in
        match (parse bpath, parse fpath) with
        | Error m, _ | _, Error m -> target_fail name [ m ]
        | Ok base, Ok fresh ->
            let errs = ref [] in
            json_diff ~tol name "" base fresh errs;
            if !errs = [] then Printf.printf "check %s: ok\n" name
            else target_fail name (List.rev !errs))
    names;
  if !failed then exit 1;
  Printf.printf "bench check: %d target(s) within tolerance %gx\n"
    (List.length names) tol

let write_bench_artifact name seconds extra =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let doc =
    Json.Obj
      ([
         ("target", Json.String name);
         ("seconds", Json.Float seconds);
       ]
      @ extra
      @ [ ("metrics", Obs.snapshot_json (Obs.snapshot ())) ])
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

let run_target (name, f) =
  Obs.set_enabled true;
  Obs.reset ();
  let extra, dt = time (fun () -> Obs.with_span ("bench." ^ name) f) in
  flush stdout;
  write_bench_artifact name dt extra;
  if name = "smoke" then validate_smoke_artifact ("BENCH_" ^ name ^ ".json")

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match cmd with
  | "all" -> List.iter run_target targets
  | "check" ->
      check
        (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)))
  | name -> (
      match List.assoc_opt name targets with
      | Some f -> run_target (name, f)
      | None ->
          Printf.eprintf
            "unknown benchmark %S (expected %s, check, all)\n" name
            (String.concat ", " (List.map fst targets));
          exit 1)
