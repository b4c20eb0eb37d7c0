(* End-to-end HYDRA pipeline (Fig. 2, vendor site): schema + CCs in,
   database summary out, with per-view diagnostics for the experiments.

   The pipeline is fault-tolerant: [regenerate] never raises. Every view
   resolves to one rung of the degradation ladder —

     Exact     every CC satisfied exactly (the normal case);
     Relaxed   the CC system was infeasible or out of budget, so the
               closest-feasible solution is used and the per-CC
               violations are reported;
     Fallback  nothing usable came out of the solver (or the view could
               not even be built), so a metadata-only uniform summary is
               synthesized from the relation's size

   — so Summary/Tuple_gen always have something to materialize, and the
   caller decides from [diagnostics] whether the artifact is good enough. *)

open Hydra_rel
open Hydra_workload
module Obs = Hydra_obs.Obs
module Mclock = Hydra_obs.Mclock
module Pool = Hydra_par.Pool
module Supervisor = Hydra_par.Supervisor
module Chaos = Hydra_chaos.Chaos

(* degradation-ladder rung counters, aggregated across the whole run *)
let m_exact = Obs.counter "pipeline.views.exact"
let m_relaxed = Obs.counter "pipeline.views.relaxed"
let m_fallback = Obs.counter "pipeline.views.fallback"

(* live-progress feed for the heartbeat/Prometheus exporter: how many
   views this run will process, and how many have finished (any rung).
   Both are jobs-invariant — the total is set once on the main domain
   and the done counter sums to the view count at quiescence — so they
   are safe under the cross-jobs metric-determinism battery. *)
let g_total_views = Obs.gauge "pipeline.progress.total_views"
let m_done_views = Obs.counter "pipeline.progress.done_views"

type violation = {
  v_pred : Predicate.t;
  v_expected : int;
  v_achieved : int;
}

type view_status =
  | Exact
  | Relaxed of violation list
  | Fallback of string

type view_stats = {
  rel : string;
  num_subviews : int;
  num_lp_vars : int;
  num_lp_constraints : int;
  solve_seconds : float;
  metrics : (string * float) list;
      (* per-view delta of the obs registry (solver counters, phase span
         durations); [] when tracing is disabled *)
  status : view_status;
  tier : Formulate.tier;
  fingerprint : string;
      (* the view's [Formulate.fingerprint] content address; "" when the
         view never reached formulation *)
  attempts : int;
      (* pool attempts this view consumed (1 = first try succeeded;
         higher counts come from supervised retries of transient
         failures) *)
}

type diagnostics = {
  exact_views : int;
  relaxed_views : int;
  fallback_views : int;
  notes : string list;
}

type result = {
  summary : Summary.t;
  views : view_stats list;
  group_residuals : Grouping.residual list;
      (* grouping CCs that value spreading could not meet exactly *)
  diagnostics : diagnostics;
  preprocess_seconds : float;
  assemble_seconds : float;
  total_seconds : float;
}

let degraded d = d.relaxed_views > 0 || d.fallback_views > 0

(* Add missing size CCs from a fallback table (metadata row counts): every
   relation needs a |R| = k constraint, but the workload may never scan
   some relations. *)
let complete_size_ccs schema ccs fallback_sizes =
  let has_size rname =
    List.exists
      (fun (cc : Cc.t) ->
        cc.Cc.relations = [ rname ]
        && cc.Cc.group_by = []
        && Predicate.equal cc.Cc.predicate Predicate.true_)
      ccs
  in
  let extra =
    List.filter_map
      (fun r ->
        let rname = r.Schema.rname in
        if has_size rname then None
        else
          match List.assoc_opt rname fallback_sizes with
          | Some n -> Some (Cc.size_cc rname n)
          | None -> None)
      (Schema.relations schema)
  in
  ccs @ extra

(* ---- per-CC violation measurement (Relaxed views) ----

   Region partitions are built so every box is homogeneous w.r.t. every CC
   predicate, so evaluating a predicate at a box's low corner decides the
   whole box. The measurement runs on the MERGED solution — the artifact
   the summary is built from — so reported violations equal the CC errors
   Validate later measures on the regenerated data (up to
   integrity-repair additions, which Validate reports separately). *)

let measure_pred (sol : Solution.t) pred =
  List.fold_left
    (fun acc (row : Solution.row) ->
      if
        Grouping.eval_at sol.Solution.attrs
          (Box.low_corner row.Solution.box)
          pred
      then acc + row.Solution.count
      else acc)
    0 sol.Solution.rows

let view_violations (view : Preprocess.view) merged =
  let ccs =
    (Predicate.true_, view.Preprocess.total)
    :: List.map
         (fun (vc : Preprocess.view_cc) ->
           (vc.Preprocess.pred, vc.Preprocess.card))
         view.Preprocess.view_ccs
  in
  (* the same CC is applicable to several sub-views; report it once *)
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (pred, card) ->
      let key = (Predicate.to_string pred, card) in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        let achieved = measure_pred merged pred in
        if achieved = card then None
        else Some { v_pred = pred; v_expected = card; v_achieved = achieved }
      end)
    ccs

(* ---- fallback: metadata-only uniform summary ----

   One row spanning the full domain of every view attribute, carrying the
   relation's size (from its size CC, or the metadata fallback, or zero).
   The row is kept even at count zero so dependent views can still project
   their borrowed combinations onto this view during integrity repair. *)

let fallback_solution schema ccs sizes rname =
  let attrs = try Preprocess.view_attrs schema rname with _ -> [] in
  let domains = try Preprocess.attr_domains schema attrs with _ -> [] in
  let total =
    match
      List.find_opt
        (fun (cc : Cc.t) ->
          cc.Cc.relations = [ rname ]
          && cc.Cc.group_by = []
          && Predicate.equal cc.Cc.predicate Predicate.true_)
        ccs
    with
    | Some cc -> cc.Cc.card
    | None -> ( match List.assoc_opt rname sizes with Some n -> n | None -> 0)
  in
  {
    Solution.attrs = Array.of_list (List.map fst domains);
    rows =
      [ { Solution.box = Array.of_list (List.map snd domains); count = total } ];
  }

let exn_message = function
  | Align.Align_error m -> "align: " ^ m
  | Formulate.Formulation_error m -> "formulation: " ^ m
  | Preprocess.Preprocess_error m -> "preprocess: " ^ m
  | Summary.Summary_error m -> "summary: " ^ m
  | Workload.Harvest_error f -> "harvest: " ^ Workload.harvest_fault_message f
  | Invalid_argument m -> m
  | e -> Printexc.to_string e

let regenerate ?(sizes = []) ?(max_nodes = 2000) ?(policy = `Low_corner)
    ?(histograms = []) ?deadline_s ?(retries = 1) ?(jobs = 1) ?cache
    ?state_dir ?(solve_mode = Hydra_lp.Simplex.Exact) schema ccs =
  let jobs = max 1 jobs in
  let t0 = Mclock.now () in
  (* deadlines live on the monotonic timeline, so a wall-clock step can
     neither expire nor extend a run's budget *)
  let deadline = Option.map (fun s -> t0 +. s) deadline_s in
  let state =
    Option.map (fun dir -> Hydra_cache.Cache.create_with Durable ~dir) state_dir
  in
  let ccs, views, route_notes =
    Obs.with_span "pipeline.preprocess" (fun () ->
        let ccs = complete_size_ccs schema ccs sizes in
        let views, route_notes =
          try Preprocess.run_each schema ccs
          with e ->
            (* even isolated preprocessing failed; degrade every view *)
            ( List.map
                (fun r -> (r.Schema.rname, Error (exn_message e)))
                (Schema.relations schema),
              [] )
        in
        (ccs, views, route_notes))
  in
  let preprocess_seconds = Mclock.now () -. t0 in
  Obs.set_gauge g_total_views (float_of_int (List.length views));
  (* Per-view processing is a pure function of (schema, ccs, view) plus
     the solver budgets, so the views can be solved on any domain of the
     hydra.par pool. Each task returns its solution, stats and grouping
     residuals; [Pool.map_list] slots results in view order, so the
     assembled summary is byte-identical for any jobs count (the
     determinism contract; only wall-clock deadlines can break it, since
     they tie degradation to real time). *)
  let process_view (rname, res) =
    (* per-view registry delta: every solver counter and phase span
       accrued while this view was processed is attributed to it. The
       snapshot is domain-local: a view runs whole on one domain, so
       concurrent views on other domains never leak into the delta. *)
    let before =
      if Obs.enabled () then Some (Obs.local_snapshot ()) else None
    in
    let t = Mclock.now () in
    let view_metrics () =
      match before with
      | None -> []
      | Some b -> Obs.diff b (Obs.local_snapshot ())
    in
    let out =
      Obs.with_span ~attrs:[ ("rel", Obs.Str rname) ] "pipeline.view"
      @@ fun () ->
        let fallback ?(prov = { Formulate.tier = Solve; fingerprint = "" })
            reason =
          (* structured view/rung/reason attrs, not just the message:
             audit reports join incidents to views through them *)
          Obs.event ~level:Obs.Warn
            ~attrs:
              [
                ("view", Obs.Str rname);
                ("rung", Obs.Str "fallback");
                ("reason", Obs.Str reason);
              ]
            ("view " ^ rname ^ " fell back: " ^ reason);
          Obs.incr m_fallback 1;
          Obs.span_attr "status" (Obs.Str "fallback");
          let sol = fallback_solution schema ccs sizes rname in
          ( (rname, sol),
            {
              rel = rname;
              num_subviews = 0;
              num_lp_vars = 0;
              num_lp_constraints = 0;
              solve_seconds = Mclock.now () -. t;
              metrics = view_metrics ();
              status = Fallback reason;
              tier = prov.Formulate.tier;
              fingerprint = prov.Formulate.fingerprint;
              attempts = 1;
            },
            [] )
        in
        match res with
        | Error m -> fallback m
        | Ok view -> (
            let finish (r : Formulate.view_result) (prov : Formulate.provenance)
                status_of_merged =
              (* merge sub-view solutions, then enforce grouping CCs by
                 value spreading and optional client histograms *)
              let merged, status =
                Obs.with_span "view.merge" (fun () ->
                    let merged = Align.merge_all r.Formulate.solutions in
                    (merged, status_of_merged merged))
              in
              let merged, view_residuals =
                Obs.with_span "view.refine" (fun () ->
                    let merged, res = Grouping.refine ~policy view merged in
                    let merged =
                      if histograms = [] then merged
                      else Correlation.refine ~owner:rname histograms merged
                    in
                    (merged, res))
              in
              (match status with
              | Exact ->
                  Obs.incr m_exact 1;
                  Obs.span_attr "status" (Obs.Str "exact")
              | Relaxed vs ->
                  Obs.incr m_relaxed 1;
                  Obs.span_attr "status" (Obs.Str "relaxed");
                  Obs.event ~level:Obs.Info
                    ~attrs:
                      [
                        ("view", Obs.Str rname);
                        ("rung", Obs.Str "relaxed");
                        ("violations", Obs.Int (List.length vs));
                      ]
                    ("view " ^ rname ^ " relaxed")
              | Fallback _ -> ());
              Obs.span_attr "lp_vars" (Obs.Int r.Formulate.lp_vars);
              Obs.span_attr "lp_constraints"
                (Obs.Int r.Formulate.lp_constraints);
              ( (rname, merged),
                {
                  rel = rname;
                  num_subviews = List.length r.Formulate.problems;
                  num_lp_vars = r.Formulate.lp_vars;
                  num_lp_constraints = r.Formulate.lp_constraints;
                  solve_seconds = Mclock.now () -. t;
                  metrics = view_metrics ();
                  status;
                  tier = prov.Formulate.tier;
                  fingerprint = prov.Formulate.fingerprint;
                  attempts = 1;
                },
                view_residuals )
            in
            (* a catch-all around the whole solve: an exception escaping a
               pooled view task must land on that view's Fallback rung,
               never kill the batch. Injected chaos faults are the one
               exception to the exception — they exist to exercise the
               supervisor and the crash path, so absorbing them here
               would defeat the harness *)
            try
              match
                Formulate.solve_view_robust ~max_nodes ~retries ?deadline
                  ?cache ?state ~solve_mode view
              with
              | Formulate.Exact r, prov -> finish r prov (fun _ -> Exact)
              | Formulate.Relaxed (r, _total), prov ->
                  finish r prov (fun merged ->
                      Relaxed (view_violations view merged))
              | Formulate.Failed m, prov -> fallback ~prov m
            with e when not (Chaos.is_injected e) ->
              fallback (exn_message e))
    in
    (* counted only on normal completion: a raising attempt is retried
       (or re-processed below), so each view lands here exactly once *)
    Obs.incr m_done_views 1;
    out
  in
  (* Every view task runs under the supervisor, so an injected transient
     fault is retried at once instead of degrading the view. A view
     still failing after its retries degrades to its Fallback rung right
     here, preserving regenerate's never-raises contract (simulated
     [Chaos.Crashed] deaths excepted, by design). *)
  let views_arr = Array.of_list views in
  let processed =
    Pool.with_pool jobs (fun pool ->
        let results, attempts =
          Supervisor.map_range pool (Array.length views_arr)
            (fun i -> process_view views_arr.(i))
        in
        Array.to_list
          (Array.mapi
             (fun i r ->
               let sol, st, res =
                 match r with
                 | Ok v -> v
                 | Error (f : Pool.failure) ->
                     let rname = fst views_arr.(i) in
                     process_view (rname, Error (exn_message f.Pool.f_exn))
               in
               (sol, { st with attempts = attempts.(i) }, res))
             results))
  in
  let view_solutions = List.map (fun (s, _, _) -> s) processed in
  let stats = List.map (fun (_, st, _) -> st) processed in
  let residuals = List.concat_map (fun (_, _, r) -> r) processed in
  (* summary assembly is cross-view; if it fails (it should not), degrade
     every view to its fallback so the artifact still exists *)
  let assemble_t = Mclock.now () in
  let summary, stats, assembly_notes =
    Obs.with_span "pipeline.assemble" (fun () ->
        match Summary.of_view_solutions ~policy schema view_solutions with
        | s -> (s, stats, [])
        | exception e ->
            let reason = "summary assembly failed: " ^ exn_message e in
            Obs.event ~level:Obs.Error reason;
            let fb =
              List.map
                (fun (r, _) -> (r, fallback_solution schema ccs sizes r))
                view_solutions
            in
            let stats =
              List.map (fun st -> { st with status = Fallback reason }) stats
            in
            (match Summary.of_view_solutions ~policy schema fb with
            | s -> (s, stats, [ reason ])
            | exception e2 ->
                (* last resort: an empty summary; still a usable artifact *)
                ( {
                    Summary.schema;
                    views = [];
                    relations = [];
                    extra_tuples = [];
                  },
                  stats,
                  [ reason; "fallback assembly failed: " ^ exn_message e2 ] )))
  in
  let assemble_seconds = Mclock.now () -. assemble_t in
  let count f = List.length (List.filter f stats) in
  let diagnostics =
    {
      exact_views = count (fun s -> s.status = Exact);
      relaxed_views =
        count (fun s -> match s.status with Relaxed _ -> true | _ -> false);
      fallback_views =
        count (fun s -> match s.status with Fallback _ -> true | _ -> false);
      notes = route_notes @ assembly_notes;
    }
  in
  {
    summary;
    views = stats;
    group_residuals = residuals;
    diagnostics;
    preprocess_seconds;
    assemble_seconds;
    total_seconds = Mclock.now () -. t0;
  }

let total_lp_vars result =
  List.fold_left (fun acc v -> acc + v.num_lp_vars) 0 result.views

(* ---- the run record ---- *)

let status_word = function
  | Exact -> "exact"
  | Relaxed _ -> "relaxed"
  | Fallback _ -> "fallback"

let status_detail = function
  | Exact -> []
  | Fallback reason -> [ reason ]
  | Relaxed vs ->
      List.map
        (fun v ->
          Printf.sprintf "%s expected %d achieved %d"
            (Predicate.to_string v.v_pred) v.v_expected v.v_achieved)
        vs

let to_ledger ~subcommand ~spec_digest ~jobs ~exit_code ?(spans = [])
    ?(paths = []) r =
  let module L = Hydra_obs.Ledger in
  let view v =
    { L.v_rel = v.rel; v_status = status_word v.status;
      v_fingerprint = v.fingerprint;
      v_tier =
        (match v.tier with
        | Formulate.Solve -> "solve" | State -> "state" | Cache -> "cache");
      v_seconds = v.solve_seconds;
      v_lp_vars = v.num_lp_vars; v_lp_constraints = v.num_lp_constraints;
      v_attempts = v.attempts; v_detail = status_detail v.status;
      v_metrics = v.metrics }
  in
  let relation (rs : Summary.relation_summary) =
    { L.s_rel = rs.Summary.rs_rel; s_rows = Array.length rs.Summary.rs_rows;
      s_tuples = rs.Summary.rs_total;
      s_repair =
        Option.value ~default:0
          (List.assoc_opt rs.Summary.rs_rel r.summary.Summary.extra_tuples) }
  in
  { L.r_subcommand = subcommand;
    r_config_digest = L.config_digest ~subcommand [ spec_digest ];
    r_spec_digest = spec_digest; r_jobs = jobs; r_exit = exit_code;
    r_seconds = r.total_seconds; r_views = List.map view r.views;
    r_notes = r.diagnostics.notes;
    r_summary = List.map relation r.summary.Summary.relations;
    r_paths = paths;
    r_metrics = Obs.snapshot (); r_events = Obs.recent_events ();
    r_spans = spans }
