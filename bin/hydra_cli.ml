(* hydra — command-line front end for the regeneration pipeline.

   A spec file (see Cc_parser) declares the schema, the cardinality
   constraints harvested from the client's annotated query plans, and
   optionally queries. The CLI turns specs into database summaries,
   summaries into materialized CSV data, and validates volumetric
   similarity, mirroring the vendor-site flow of Fig. 2. *)

open Cmdliner
module Obs = Hydra_obs.Obs
module Mclock = Hydra_obs.Mclock
module Flame = Hydra_obs.Flame
module Ledger = Hydra_obs.Ledger
module Progress = Hydra_obs.Progress
module Resource = Hydra_obs.Resource
module Pool = Hydra_par.Pool
module Chaos = Hydra_chaos.Chaos

(* ---- exit codes ----

   One table, one meaning per code: every exit below goes through
   [exit_with], and [Cmd.info ~exits] renders the table into --help. *)
type outcome =
  | Usage_error | Validation_failed | Relaxed_views | Fallback_views
  | Obs_regression | Fuzz_failure | Scrub_found_bad
  | Task_failed | Corrupt_summary | Chaos_crash

let exit_table =
  [
    (Usage_error, 1, "a bad spec, argument or input file (parse, schema, I/O).");
    (Validation_failed, 2, "$(b,validate): some CC's error exceeds 50%.");
    (Relaxed_views, 3, "$(b,summary): some views are Relaxed (closest-feasible).");
    (Fallback_views, 4, "$(b,summary): some views are Fallback (metadata-only).");
    (Obs_regression, 5, "$(b,obs diff): a gated metric regressed.");
    (Fuzz_failure, 6, "$(b,fuzz): an invariant failed (reproducer written).");
    (Scrub_found_bad, 8, "$(b,cache scrub): corrupt entries were left in place.");
    (Task_failed, 9, "a task or an injected transient fault outlived its retries.");
    (Corrupt_summary, 12, "a summary file is corrupt (torn, garbled, bad digest).");
    (Chaos_crash, Chaos.kill_exit_code, "a simulated chaos crash (as $(b,kind=kill)).");
  ]

let exits =
  Cmd.Exit.info Cmd.Exit.ok ~doc:"on success ($(b,summary): every view exact)."
  :: List.map (fun (_, code, doc) -> Cmd.Exit.info code ~doc) exit_table
  @ [
      Cmd.Exit.info Cmd.Exit.cli_error ~doc:"on a command line parsing error.";
      Cmd.Exit.info Cmd.Exit.internal_error
        ~doc:"on an unexpected internal error (a bug).";
    ]

let exit_code outcome =
  let _, code, _ = List.find (fun (o, _, _) -> o = outcome) exit_table in
  code

let exit_with outcome = exit (exit_code outcome)

let die outcome m =
  prerr_endline ("hydra: " ^ m);
  exit_with outcome

let or_die = function Ok v -> v | Error m -> die Usage_error m

(* every subcommand's --help lists the table *)
let cmd_info name ~doc = Cmd.info name ~doc ~exits

(* ---- telemetry ----

   Every export is a rendering of one run record (Ledger.run). One span
   collector exists per process, created as soon as any telemetry is on
   (a flag, or a HYDRA_OBS token). *)

let collector : Flame.collector option ref = ref None

let telemetry_on () =
  Obs.set_enabled true;
  if Option.is_none !collector then begin
    let c = Flame.create () in
    Obs.add_sink (Flame.sink c);
    collector := Some c
  end

let collected_spans () =
  match !collector with Some c -> Flame.spans c | None -> []

(* The process's run record: [final_record] once the subcommand built
   one, else the live registry. The exports render it once it is
   final. *)
let final_record : Ledger.entry option ref = ref None
let started = Mclock.now ()

let current_entry () =
  match !final_record with
  | Some e -> e
  | None ->
      Ledger.live
        (Ledger.current ~spans:(collected_spans ())
           ~seconds:(Mclock.now () -. started) ())

(* the (format, file) exports, in the order given; file "-" is stdout *)
let exports : (Ledger.format * string) list ref = ref []

(* the human-readable lines yield stdout to an export that claims it *)
let stdout_free () = not (List.exists (fun (_, file) -> file = "-") !exports)

(* Written once, when the record is final: [summary] calls this right
   after building its record, every other subcommand at exit. Either
   way they survive the degraded exit codes 3/4. *)
let write_exports () =
  let e = lazy (current_entry ()) in
  List.iter
    (fun (fmt, file) ->
      let text = Ledger.render fmt (Lazy.force e) in
      if file = "-" then print_string text
      else
        Hydra_durable.Durable_io.write_atomic ~fsync:false file (fun b ->
            Buffer.add_string b text))
    !exports;
  exports := []

(* ---- telemetry settings ----

   The telemetry flags and HYDRA_OBS produce one settings value through
   the same converters: a token NAME=VALUE means --NAME VALUE. *)

type telemetry = {
  trace : string option;
  export : (Ledger.format * string) list;
  progress : float option;
}

let no_telemetry = { trace = None; export = []; progress = None }

let export_conv =
  Arg.conv'
    ( Ledger.export_of_string,
      fun ppf (fmt, file) ->
        Format.fprintf ppf "%s=%s"
          (fst (List.find (fun (_, f) -> f = fmt) Ledger.formats))
          file )

let progress_conv =
  Arg.conv' (Progress.period_of_string, Format.pp_print_float)

let seconds_conv =
  Arg.conv'
    ( (fun v ->
        match float_of_string_opt v with
        | Some s when s >= 0.0 && Float.is_finite s -> Ok s
        | _ -> Error (Printf.sprintf "expected finite seconds >= 0, got %S" v)),
      Format.pp_print_float )

let at_least lo =
  Arg.conv'
    ( (fun v ->
        match int_of_string_opt v with
        | Some n when n >= lo -> Ok n
        | _ -> Error (Printf.sprintf "expected an integer >= %d, got %S" lo v)),
      Format.pp_print_int )

(* shared parallelism knob: --jobs beats HYDRA_JOBS beats the machine's
   recommended domain count. Output is identical for any value (the
   determinism contract in Pipeline/Tuple_gen/Workload). *)
let jobs_arg =
  Arg.(
    value
    & opt (at_least 1) (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "HYDRA_JOBS")
        ~absent:"the machine's core count"
        ~doc:
          "Solve views, materialize row-range shards and evaluate workload \
           queries on $(docv) domains. The output is identical for any \
           value.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Append one JSON line per finished span and event to $(docv) \
           (JSONL trace).")

let export_arg =
  Arg.(
    value & opt_all export_conv []
    & info [ "export" ] ~docv:"FORMAT=FILE"
        ~doc:
          "Write the run record rendered as $(i,FORMAT) to $(i,FILE) \
           ($(b,-) is stdout, which then carries only the exports) once \
           the record is final, even on the degraded exit codes 3/4. \
           $(i,FORMAT) is $(b,text) (the report $(b,hydra obs show) \
           prints), $(b,json) (the $(b,hydra-ledger/1) record \
           $(b,--obs-dir) archives, byte for byte), $(b,metrics) (JSON \
           snapshot of every counter, gauge, histogram and span \
           aggregate), $(b,folded) (flamegraph folded stacks), \
           $(b,chrome) (Chrome trace-event JSON for Perfetto or \
           chrome://tracing) or $(b,prometheus) (text exposition). \
           Repeatable; implies metric collection.")

(* run telemetry ledger: --obs-dir beats HYDRA_OBS_DIR; absent both, no
   archiving. Shared by the recording commands and the `hydra obs`
   analysis family. *)
let obs_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs-dir" ]
        ~env:(Cmd.Env.info "HYDRA_OBS_DIR") ~docv:"DIR"
        ~doc:
          "Run telemetry ledger directory. Each instrumented run archives \
           one atomic, digest-checked record (configuration fingerprints, \
           per-view outcomes, the final metrics snapshot with \
           percentiles, the event log, every span) under $(docv); \
           $(b,hydra obs list/show/diff/top/prune) analyze them. Defaults \
           to $(b,HYDRA_OBS_DIR) when set.")

let progress_arg =
  Arg.(
    value
    & opt (some progress_conv) None
    & info [ "progress" ] ~docv:"SECONDS"
        ~doc:
          "Live progress export every $(docv) seconds: a one-line \
           heartbeat on stderr (views done/total, rung split, cache \
           hits, retries) and an atomically rewritten Prometheus-text \
           $(i,metrics.prom) (in --obs-dir if given, else the working \
           directory). A final tick fires at exit.")

let start_progress ?obs_dir period =
  (* the resource sampler rides along: its gauges (process.rss_bytes,
     gc.*_words) are what make a mid-run metrics.prom worth reading *)
  let sampler = Resource.start () in
  at_exit (fun () -> Resource.stop sampler);
  let prom_out =
    match obs_dir with
    | Some d ->
        Hydra_durable.Durable_io.mkdir_p d;
        Filename.concat d "metrics.prom"
    | None -> "metrics.prom"
  in
  let t = Progress.start ~heartbeat:stderr ~prom_out ~period_s:period () in
  (* runs before the [at_exit Obs.finish] registered at startup
     (reverse registration order), so the final prom rewrite still
     sees every sink open *)
  at_exit (fun () -> Progress.stop t)

let audit_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-out" ] ~docv:"FILE"
        ~doc:
          "Re-execute every CC's plan against the regenerated database \
           with per-operator cardinality accounting and write the \
           volumetric-accuracy audit report (expected vs observed rows \
           per operator, per-relation roll-up reconciled against \
           validation, degraded-view incidents) to $(docv). Implies \
           metric collection.")

(* audited validation against a database: the audit trail, the validation
   report, and whether the two roll-ups agree exactly *)
let run_audit db ccs =
  let trail = Hydra_audit.Audit.create () in
  let v = Hydra_core.Validate.check ~audit:trail db ccs in
  let records = Hydra_audit.Audit.records trail in
  let reconciles =
    Hydra_core.Validate.reconciles_audit v
      (Hydra_audit.Audit.by_relation records)
  in
  (v, records, reconciles)

let audit_incidents () =
  List.filter
    (fun (ev : Obs.event) -> List.mem_assoc "view" ev.Obs.ev_attrs)
    (Obs.recent_events ())

let print_audit_line records reconciles path =
  let ops, annotated, exact, max_err =
    Hydra_audit.Audit.summary_stats records
  in
  Printf.printf
    "audit: %d operators (%d annotated, %d exact), max |rel err| %.2f%% -> \
     %s%s\n"
    ops annotated exact (100.0 *. max_err) path
    (if reconciles then " (reconciles with validate)"
     else " (DOES NOT reconcile with validate)")

let read_spec path =
  try Ok (Hydra_workload.Cc_parser.parse_file path) with
  | Hydra_workload.Cc_parser.Parse_error m ->
      Error (Printf.sprintf "parse error in %s: %s" path m)
  | Hydra_rel.Schema.Schema_error m ->
      Error (Printf.sprintf "schema error in %s: %s" path m)
  | Sys_error m -> Error m

(* ---- telemetry settings: a subcommand's flags over HYDRA_OBS ---- *)

(* --progress is the live mode, only on [summary] *)
let telemetry_args ~live =
  let settings trace export progress = { trace; export; progress } in
  let live_only arg = if live then arg else Term.const None in
  Term.(const settings $ trace_arg $ export_arg $ live_only progress_arg)

(* HYDRA_OBS, parsed once at startup. [on], [text] and [level=] have no
   flag and act at once; a bad value or an unknown token is a usage
   error with the converter's own message. *)
let env_telemetry = ref no_telemetry

let level_conv =
  Arg.enum
    (List.map (fun l -> (Obs.level_name l, l)) Obs.[ Debug; Info; Warn; Error ])

let parse_env_telemetry () =
  let token t (name, value) =
    let arg conv =
      match Arg.conv_parser conv (Option.get value) with
      | Ok v -> v
      | Error (`Msg m) ->
          die Usage_error (Printf.sprintf "HYDRA_OBS: %s: %s" name m)
    in
    match (name, value) with
    | "on", None ->
        Obs.set_enabled true;
        t
    | "text", None ->
        Obs.add_sink (Obs.text_sink stderr);
        Obs.set_enabled true;
        t
    | "level", Some _ ->
        Obs.set_sink_level (arg level_conv);
        t
    | "trace", Some _ -> { t with trace = Some (arg Arg.string) }
    | "export", Some _ -> { t with export = t.export @ [ arg export_conv ] }
    | "progress", Some _ -> { t with progress = Some (arg progress_conv) }
    | _ ->
        die Usage_error
          (Printf.sprintf
             "HYDRA_OBS: unknown token %S (expected on, text, level=, trace=, \
              export= or progress=)"
             (name ^ Option.fold ~none:"" ~some:(( ^ ) "=") value))
  in
  let spec = Option.value ~default:"" (Sys.getenv_opt "HYDRA_OBS") in
  env_telemetry := List.fold_left token no_telemetry (Obs.spec_tokens spec)

(* The subcommand's flags over HYDRA_OBS: the exports of both apply, a
   flag's single value beats the token's. *)
let start_telemetry ?obs_dir flags =
  let env = !env_telemetry in
  let either f e = if Option.is_some f then f else e in
  let t =
    {
      trace = either flags.trace env.trace;
      export = env.export @ flags.export;
      progress = either flags.progress env.progress;
    }
  in
  if t <> no_telemetry then telemetry_on ();
  Option.iter (fun path -> Obs.add_sink (Obs.jsonl_sink path)) t.trace;
  exports := t.export;
  Option.iter (start_progress ?obs_dir) t.progress

(* Every subcommand runs through here: its telemetry settings start
   first (HYDRA_OBS alone for subcommands without telemetry flags), and
   domain errors raised below the command layer render uniformly — one
   actionable line on stderr, no OCaml backtrace, and the error
   family's row of the exit table. *)
let protecting ?(telemetry = no_telemetry) ?obs_dir f x =
  try
    start_telemetry ?obs_dir telemetry;
    f x;
    flush stdout
  with
  | Hydra_rel.Schema.Schema_error m -> die Usage_error ("schema: " ^ m)
  | Hydra_workload.Cc_parser.Parse_error m -> die Usage_error ("parse: " ^ m)
  (* a closed stdout ends the run on the I/O row, quietly: a reader
     that stopped early (say, head) asked for no more *)
  | Sys_error m when m = Unix.error_message Unix.EPIPE -> exit_with Usage_error
  | Invalid_argument m | Sys_error m -> die Usage_error m
  | Hydra_core.Summary.Corrupt c ->
      die Corrupt_summary
        (Printf.sprintf "summary: %s is corrupt (line %d: %s)"
           c.Hydra_core.Summary.sum_path c.Hydra_core.Summary.sum_line
           c.Hydra_core.Summary.sum_reason)
  | Chaos.Crashed site ->
      die Chaos_crash ("chaos: simulated crash at site " ^ site)
  | Chaos.Injected site ->
      die Task_failed ("chaos: transient fault at site " ^ site ^ " was not retried")
  | Pool.Batch_failure fs ->
      die Task_failed
        ("parallel batch failed: "
        ^ String.concat "; "
            (List.map
               (fun (f : Pool.failure) ->
                 Printf.sprintf "task %d: %s" f.Pool.f_index
                   (Printexc.to_string f.Pool.f_exn))
               fs))

(* solve cache: --cache-dir beats HYDRA_CACHE; absent both, no caching.
   The directory is created on first use. *)
let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ]
        ~env:(Cmd.Env.info "HYDRA_CACHE") ~docv:"DIR"
        ~doc:
          "Content-addressed solve cache directory. Each view's LP solve \
           is keyed by a fingerprint of its formulated problem and solver \
           budgets; re-running an unchanged spec replays the stored \
           solutions (and reports the same per-view outcomes) without \
           touching the solver. Corrupt or foreign entries are treated as \
           misses. Defaults to $(b,HYDRA_CACHE) when set.")

let open_cache = Option.map (fun d -> Hydra_cache.Cache.create ~dir:d)

(* crash-safe runs: --state-dir records every solved view durably
   before the run moves on, so re-running the same command after a
   crash replays completed views and re-solves only the rest *)
let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ]
        ~env:(Cmd.Env.info "HYDRA_STATE") ~docv:"DIR"
        ~doc:
          "Run-scoped state directory for crash-safe regeneration. Every \
           solved view's outcome, failures included, is stored as one \
           fsynced entry per view in $(docv) (the solve-cache entry \
           format, so $(b,hydra cache scrub) reads it) before the run \
           proceeds; re-running after a crash or kill replays the \
           recorded views and re-solves only the missing ones, \
           producing a byte-identical summary. Corrupt or truncated \
           entries are misses, never fatal. Defaults to $(b,HYDRA_STATE) \
           when set.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault injection (testing). $(docv) is \
           comma-separated key=value pairs: $(b,site)=<name> (required; \
           one of solve, pool.task, cache.read, cache.write, \
           journal.append, summary.save, materialize.shard), \
           $(b,kind)=transient|crash|kill (default crash), \
           $(b,after)=N (fire on the N-th pass, default 1), \
           $(b,times)=N (consecutive passes that fire, default 1, 0 = \
           unlimited). Example: --chaos site=solve,kind=kill,after=2. \
           Overrides a plan armed through $(b,HYDRA_CHAOS), which takes \
           the same value and applies to every subcommand.")

(* LP engine: --solve-mode beats HYDRA_SOLVE_MODE. The CLI defaults to
   float-first (shadow simplex in doubles, terminal basis verified in
   exact arithmetic — byte-identical results, much less Rat churn); the
   library default stays exact so programmatic callers and existing
   baselines keep the reference semantics unless they opt in. *)
let solve_mode_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("exact", Hydra_lp.Simplex.Exact);
             ("float-first", Hydra_lp.Simplex.Float_first);
           ])
        Hydra_lp.Simplex.Float_first
    & info [ "solve-mode" ]
        ~env:(Cmd.Env.info "HYDRA_SOLVE_MODE") ~docv:"MODE"
        ~doc:
          "LP engine: $(b,float-first) (default) runs the \
           double-precision shadow simplex and verifies its terminal \
           basis in exact rational arithmetic (repairing with exact \
           pivots when needed), falling back to the all-exact solver on \
           any numerical ambiguity; $(b,exact) solves everything in \
           rational arithmetic. Both modes produce byte-identical \
           summaries; float-first is faster on wide views. Defaults to \
           $(b,HYDRA_SOLVE_MODE) when set.")

let arm_chaos = function
  | None -> ()
  | Some spec -> (
      match Chaos.parse spec with
      | Ok plan -> Chaos.arm plan
      | Error m -> or_die (Error m))

let spec_arg =
  let doc = "Spec file with table and cc declarations." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SPEC" ~doc)

let summary_pos_arg =
  let doc = "Database summary file produced by $(b,hydra summary)." in
  Arg.(required & pos 1 (some file) None & info [] ~docv:"SUMMARY" ~doc)

(* ---- summary ---- *)

let status_line (v : Hydra_core.Pipeline.view_stats) =
  match v.Hydra_core.Pipeline.status with
  | Hydra_core.Pipeline.Exact -> "exact"
  | Hydra_core.Pipeline.Relaxed [] -> "relaxed (consistency only)"
  | Hydra_core.Pipeline.Relaxed vs ->
      Printf.sprintf "relaxed (%d CC%s violated)" (List.length vs)
        (if List.length vs = 1 then "" else "s")
  | Hydra_core.Pipeline.Fallback reason -> "fallback: " ^ reason

(* the human-readable run lines; a stdout export replaces them *)
let print_summary_lines ?cache ~out (result : Hydra_core.Pipeline.result) =
  let open Hydra_core.Pipeline in
  let summary = result.summary in
  Printf.printf "summary: %d rows covering %d tuples -> %s (%.2fs)\n"
    (Hydra_core.Summary.summary_rows summary)
    (Hydra_core.Summary.total_rows summary)
    out result.total_seconds;
  List.iter
    (fun v ->
      Printf.printf "  view %-20s %6d LP vars %5d constraints %.2fs  %s%s\n"
        v.rel v.num_lp_vars v.num_lp_constraints v.solve_seconds (status_line v)
        ((match v.tier with
         | Hydra_core.Formulate.State -> " [replayed]"
         | Cache -> " [cached]"
         | Solve -> "")
        ^
        if v.attempts > 1 then Printf.sprintf " [%d attempts]" v.attempts
        else "");
      match v.status with
      | Relaxed _ ->
          List.iter (Printf.printf "    violated: %s\n") (status_detail v.status)
      | _ -> ())
    result.views;
  List.iter (Printf.printf "  note: %s\n") result.diagnostics.notes;
  List.iter
    (fun (r, n) ->
      if n > 0 then Printf.printf "  +%d integrity-repair tuples in %s\n" n r)
    summary.Hydra_core.Summary.extra_tuples;
  Option.iter
    (fun c ->
      let s = Hydra_cache.Cache.stats c in
      let plural n one many = if n = 1 then one else many in
      Printf.printf "  cache: %d hit%s, %d miss%s, %d store%s -> %s\n"
        s.Hydra_cache.Cache.hits
        (plural s.Hydra_cache.Cache.hits "" "s")
        s.Hydra_cache.Cache.misses
        (plural s.Hydra_cache.Cache.misses "" "es")
        s.Hydra_cache.Cache.stores
        (plural s.Hydra_cache.Cache.stores "" "s")
        (Hydra_cache.Cache.dir c))
    cache

let summary_cmd =
  let out =
    Arg.(
      value
      & opt string "db.summary"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output summary file.")
  in
  let deadline =
    Arg.(
      value
      & opt (some seconds_conv) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the whole run; views still unsolved when \
             it expires degrade to their closest-feasible or fallback \
             summaries.")
  in
  let max_nodes =
    Arg.(
      value & opt (at_least 0) 2000
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Branch-and-bound node budget per view before degradation.")
  in
  let run spec_path out deadline_s max_nodes jobs cache_dir state_dir chaos
      solve_mode audit_out obs_dir =
    if audit_out <> None || obs_dir <> None then telemetry_on ();
    arm_chaos chaos;
    let spec = or_die (read_spec spec_path) in
    let cache = open_cache cache_dir in
    let result =
      Hydra_core.Pipeline.regenerate ?deadline_s ~max_nodes ~jobs ?cache
        ?state_dir ~solve_mode spec.Hydra_workload.Cc_parser.schema
        spec.Hydra_workload.Cc_parser.ccs
    in
    let summary = result.Hydra_core.Pipeline.summary in
    Hydra_core.Summary.save out summary;
    (* resource gauges (RSS, GC words) land in the text report, the
       metrics snapshot and the ledger record even without a sampler
       running; one post-run sample is enough for a batch run *)
    if Obs.enabled () then Resource.sample ();
    if stdout_free () then print_summary_lines ?cache ~out result;
    (* audited validation runs against the dynamic generator: the same
       tuples materialization would produce, with no storage and no
       jobs-dependence, so the report is byte-identical across --jobs *)
    Option.iter
      (fun path ->
        let db = Hydra_core.Tuple_gen.dynamic summary in
        let _, records, reconciles =
          run_audit db spec.Hydra_workload.Cc_parser.ccs
        in
        Hydra_audit.Audit.write_report ~reconciles
          ~incidents:(audit_incidents ()) path records;
        if stdout_free () then print_audit_line records reconciles path)
      audit_out;
    let d = result.Hydra_core.Pipeline.diagnostics in
    let outcome =
      if d.Hydra_core.Pipeline.fallback_views > 0 then Some Fallback_views
      else if d.Hydra_core.Pipeline.relaxed_views > 0 then Some Relaxed_views
      else None
    in
    let spec_digest =
      try Digest.to_hex (Digest.file spec_path) with Sys_error _ -> ""
    in
    let paths =
      ("summary", out)
      :: List.filter_map
           (fun (k, p) -> Option.map (fun p -> (k, p)) p)
           [ ("cache", cache_dir); ("state", state_dir); ("audit", audit_out) ]
    in
    let record =
      Hydra_core.Pipeline.to_ledger ~subcommand:"summary" ~spec_digest ~jobs
        ~exit_code:(Option.fold ~none:0 ~some:exit_code outcome)
        ~spans:(collected_spans ()) ~paths result
    in
    (* the confirmation goes to stderr so stdout stays an export's *)
    final_record :=
      Some
        (match obs_dir with
        | Some dir ->
            let e = Ledger.record ~dir record in
            Printf.eprintf "obs: run %s archived -> %s\n%!" e.Ledger.e_id dir;
            e
        | None -> Ledger.live record);
    write_exports ();
    Option.iter exit_with outcome
  in
  let doc = "Build a database summary from a schema + CC spec." in
  Cmd.v (cmd_info "summary" ~doc)
    Term.(
      const (fun a b c d e f g h i j k telemetry ->
          protecting ~telemetry ?obs_dir:k (run a b c d e f g h i j) k)
      $ spec_arg $ out $ deadline $ max_nodes $ jobs_arg $ cache_dir_arg
      $ state_dir_arg $ chaos_arg $ solve_mode_arg $ audit_out_arg $ obs_dir_arg
      $ telemetry_args ~live:true)

(* ---- materialize ---- *)

let materialize_cmd =
  let dir =
    Arg.(
      value & opt string "."
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Output directory for CSVs.")
  in
  let run spec_path summary_path dir jobs =
    let spec = or_die (read_spec spec_path) in
    let summary =
      Hydra_core.Summary.load summary_path spec.Hydra_workload.Cc_parser.schema
    in
    let t0 = Mclock.now () in
    let db = Hydra_core.Tuple_gen.materialize ~jobs summary in
    List.iter
      (fun rname ->
        match Hydra_engine.Database.source db rname with
        | Hydra_engine.Database.Stored table ->
            let path = Filename.concat dir (rname ^ ".csv") in
            Hydra_rel.Csv.write_table path table;
            Printf.printf "%s: %d rows -> %s\n" rname
              (Hydra_rel.Table.length table)
              path
        | Hydra_engine.Database.Generated _ -> ())
      (Hydra_engine.Database.relation_names db);
    Printf.printf "materialized in %.2fs\n" (Mclock.now () -. t0)
  in
  let doc = "Materialize a summary into CSV relations." in
  Cmd.v
    (cmd_info "materialize" ~doc)
    Term.(
      const (fun a b c d -> protecting (run a b c) d)
      $ spec_arg $ summary_pos_arg $ dir $ jobs_arg)

(* ---- validate ---- *)

let validate_cmd =
  let dynamic =
    Arg.(
      value & flag
      & info [ "dynamic" ]
          ~doc:
            "Execute against the dynamic tuple generator instead of \
             materialized tables.")
  in
  let run spec_path summary_path dynamic jobs audit_out =
    if audit_out <> None then telemetry_on ();
    let spec = or_die (read_spec spec_path) in
    let summary =
      Hydra_core.Summary.load summary_path spec.Hydra_workload.Cc_parser.schema
    in
    let db =
      if dynamic then Hydra_core.Tuple_gen.dynamic summary
      else Hydra_core.Tuple_gen.materialize ~jobs summary
    in
    let v =
      match audit_out with
      | None ->
          Hydra_core.Validate.check db spec.Hydra_workload.Cc_parser.ccs
      | Some path ->
          let v, records, reconciles =
            run_audit db spec.Hydra_workload.Cc_parser.ccs
          in
          Hydra_audit.Audit.write_report ~reconciles
            ~incidents:(audit_incidents ()) path records;
          if stdout_free () then print_audit_line records reconciles path;
          v
    in
    if stdout_free () then begin
      Format.printf "%a@." Hydra_core.Validate.pp v;
      List.iter
        (fun (rr : Hydra_core.Validate.relation_report) ->
          Format.printf "  %-24s %3d/%-3d exact, max |err| %.2f%%@."
            (String.concat "," rr.Hydra_core.Validate.rr_rels)
            rr.Hydra_core.Validate.rr_exact rr.Hydra_core.Validate.rr_ccs
            (100.0 *. rr.Hydra_core.Validate.rr_max_abs_error))
        (Hydra_core.Validate.by_relation v);
      List.iter
        (fun (r : Hydra_core.Validate.cc_report) ->
          if r.Hydra_core.Validate.rel_error <> 0.0 then
            Format.printf "  %+.2f%%  %a (got %d)@."
              (100.0 *. r.Hydra_core.Validate.rel_error)
              Hydra_workload.Cc.pp r.Hydra_core.Validate.cc
              r.Hydra_core.Validate.actual)
        (Hydra_core.Validate.worst v 10)
    end;
    if v.Hydra_core.Validate.max_abs_error > 0.5 then exit_with Validation_failed
  in
  let doc = "Check volumetric similarity of a summary against its CCs." in
  Cmd.v
    (cmd_info "validate" ~doc)
    Term.(
      const (fun a b c d e telemetry -> protecting ~telemetry (run a b c d) e)
      $ spec_arg $ summary_pos_arg $ dynamic $ jobs_arg $ audit_out_arg
      $ telemetry_args ~live:false)

(* ---- extract (the client-site flow of Fig. 2) ---- *)

let extract_cmd =
  let data_dir =
    Arg.(
      required
      & opt (some dir) None
      & info [ "data" ] ~docv:"DIR"
          ~doc:"Directory with one <relation>.csv per declared table.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the CC spec here instead of stdout.")
  in
  let run spec_path data_dir out jobs =
    let spec = or_die (read_spec spec_path) in
    if spec.Hydra_workload.Cc_parser.queries = [] then
      or_die (Error "extract: the spec declares no queries");
    let schema = spec.Hydra_workload.Cc_parser.schema in
    (* client database from CSVs *)
    let db = Hydra_engine.Database.create schema in
    List.iter
      (fun (r : Hydra_rel.Schema.relation) ->
        let path =
          Filename.concat data_dir (r.Hydra_rel.Schema.rname ^ ".csv")
        in
        Hydra_engine.Database.bind_table db
          (Hydra_rel.Csv.read_table path r.Hydra_rel.Schema.rname))
      (Hydra_rel.Schema.relations schema);
    (* execute the workload: AQPs -> CCs, plus size CCs for unscanned
       relations so the spec is self-contained *)
    let wl =
      Hydra_workload.Workload.create spec.Hydra_workload.Cc_parser.queries
    in
    let ccs = Hydra_workload.Workload.extract_ccs ~jobs db wl in
    let sizes =
      List.map
        (fun (r : Hydra_rel.Schema.relation) ->
          let rname = r.Hydra_rel.Schema.rname in
          (rname, Hydra_engine.Database.nrows db rname))
        (Hydra_rel.Schema.relations schema)
    in
    let ccs = Hydra_core.Pipeline.complete_size_ccs schema ccs sizes in
    let text = Hydra_workload.Cc_parser.emit schema ccs in
    (match out with
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc text);
        Printf.printf "extracted %d CCs from %d queries -> %s\n"
          (List.length ccs)
          (List.length spec.Hydra_workload.Cc_parser.queries)
          path
    | None -> print_string text)
  in
  let doc =
    "Run the spec's queries against CSV data and emit the cardinality \
     constraints (the client-site flow)."
  in
  Cmd.v (cmd_info "extract" ~doc)
    Term.(
      const (fun a b c d -> protecting (run a b c) d)
      $ spec_arg $ data_dir $ out $ jobs_arg)

(* ---- cache maintenance ---- *)

let cache_scrub_cmd =
  let delete =
    Arg.(
      value & flag
      & info [ "delete" ]
          ~doc:
            "Remove every corrupt or version-mismatched entry and every \
             orphan temp file found.")
  in
  let run cache_dir delete =
    let dir =
      match cache_dir with
      | Some d -> d
      | None ->
          or_die (Error "cache scrub: --cache-dir (or HYDRA_CACHE) is required")
    in
    let r = Hydra_cache.Cache.scrub ~delete ~dir () in
    let report label entries =
      List.iter
        (fun (b : Hydra_cache.Cache.bad_entry) ->
          Printf.printf "  %s: %s (%s)%s\n" label b.Hydra_cache.Cache.be_file
            b.Hydra_cache.Cache.be_problem
            (if delete then " [deleted]" else ""))
        entries
    in
    report "bad" r.Hydra_cache.Cache.sr_bad;
    report "stale" r.Hydra_cache.Cache.sr_stale;
    report "orphan" r.Hydra_cache.Cache.sr_orphans;
    Printf.printf
      "cache scrub: %d entries, %d ok, %d bad, %d stale, %d deleted -> %s\n"
      r.Hydra_cache.Cache.sr_total r.Hydra_cache.Cache.sr_ok
      (List.length r.Hydra_cache.Cache.sr_bad)
      (List.length r.Hydra_cache.Cache.sr_stale)
      r.Hydra_cache.Cache.sr_deleted dir;
    (* corrupt entries left behind signal scripts to re-run with
       --delete; stale entries and orphan temp files are the expected
       debris of an upgrade or a kill and never fail the walk *)
    if r.Hydra_cache.Cache.sr_bad <> [] && not delete then
      exit_with Scrub_found_bad
  in
  let doc =
    "Walk a solve-cache or $(b,--state-dir) directory, report corrupt \
     (exit 8 unless $(b,--delete)) and stale version-mismatched entries \
     (silent misses otherwise) and orphan temp files left by a kill, \
     and optionally delete them."
  in
  Cmd.v (cmd_info "scrub" ~doc)
    Term.(
      const (fun a b -> protecting (run a) b) $ cache_dir_arg $ delete)

let cache_cmd =
  let doc = "Solve-cache maintenance." in
  Cmd.group (cmd_info "cache" ~doc) [ cache_scrub_cmd ]

(* ---- obs: run-ledger analysis ---- *)

let require_obs_dir = function
  | Some d -> d
  | None -> or_die (Error "obs: --obs-dir (or HYDRA_OBS_DIR) is required")

let run_ref_arg idx docv =
  let doc =
    "Ledger run reference: a sequence number (e.g. $(b,2)), a full run \
     id, or an unambiguous id prefix."
  in
  Arg.(required & pos idx (some string) None & info [] ~docv ~doc)

(* resource metrics carry wall-clock time or process state (RSS, GC
   words), so they are only gated by an explicit per-metric threshold,
   never by --default-threshold *)
let resource_metric k =
  let ends suffix = String.ends_with ~suffix k in
  ends ".seconds" || ends ".sum" || ends ".p50" || ends ".p95"
  || ends ".p99" || ends "_bytes" || ends "_words"

let obs_list_cmd =
  let run obs_dir =
    let dir = require_obs_dir obs_dir in
    let l = Ledger.runs ~dir in
    List.iter
      (fun (e : Ledger.entry) ->
        let r = e.Ledger.e_run in
        let ex, rx, fb = Ledger.rungs r in
        Printf.printf "%s  %-10s jobs %-3d exit %d  views %d/%d/%d\n"
          e.Ledger.e_id r.Ledger.r_subcommand r.Ledger.r_jobs r.Ledger.r_exit
          ex rx fb)
      l.Ledger.l_entries;
    List.iter
      (fun (fn, reason) -> Printf.printf "  corrupt: %s (%s)\n" fn reason)
      l.Ledger.l_corrupt;
    Printf.printf "%d run(s)%s -> %s\n"
      (List.length l.Ledger.l_entries)
      (match l.Ledger.l_corrupt with
      | [] -> ""
      | c -> Printf.sprintf ", %d corrupt skipped" (List.length c))
      dir
  in
  let doc =
    "List the archived runs of a ledger directory (views column is \
     exact/relaxed/fallback); corrupt records are reported and skipped."
  in
  Cmd.v (cmd_info "list" ~doc)
    Term.(const (fun a -> protecting run a) $ obs_dir_arg)

let obs_show_cmd =
  let events_n =
    Arg.(
      value & opt int 10
      & info [ "events" ] ~docv:"N"
          ~doc:
            "Show the last $(docv) archived events in the $(b,text) \
             rendering (0 hides them).")
  in
  let format =
    Arg.(
      value
      & opt (enum Ledger.formats) Ledger.Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Rendering: $(b,text) (the report), $(b,json) (the record), \
             $(b,metrics), $(b,folded), $(b,chrome) or $(b,prometheus) \
             — byte-equal to the run's own $(b,--export) $(docv)=FILE.")
  in
  let run obs_dir ref_ events format =
    let dir = require_obs_dir obs_dir in
    print_string (Ledger.render ~events format (or_die (Ledger.find ~dir ref_)))
  in
  let doc = "Render one archived run in any export format." in
  Cmd.v (cmd_info "show" ~doc)
    Term.(
      const (fun a b c d -> protecting (run a b c) d)
      $ obs_dir_arg
      $ run_ref_arg 0 "RUN"
      $ events_n $ format)

let obs_diff_cmd =
  let thresholds =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string float) []
      & info [ "threshold" ] ~docv:"METRIC=RATIO"
          ~doc:
            "Gate $(i,METRIC): fail when the second run's value exceeds \
             $(i,RATIO) times the first run's. Repeatable; explicit \
             thresholds also gate time-based metrics.")
  in
  let default_threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-threshold" ] ~docv:"RATIO"
          ~doc:
            "Gate every deterministic metric (counters, gauges, span and \
             histogram counts — everything except wall-clock seconds, \
             sums, percentiles and the process/GC resource gauges) at \
             $(i,RATIO). $(b,1.0) means: no deterministic metric may \
             grow at all.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Print every changed metric.")
  in
  let run obs_dir a_ref b_ref thresholds default_threshold verbose =
    (* a zero, negative or non-finite ratio would make every metric (or
       none) a regression; reject it as a usage error before touching
       the ledger *)
    let check_ratio label r =
      if not (Float.is_finite r) || r <= 0.0 then
        or_die
          (Error
             (Printf.sprintf
                "obs diff: %s: ratio must be a finite positive number" label))
    in
    List.iter
      (fun (n, r) ->
        check_ratio (Printf.sprintf "--threshold %s=%g" n r) r)
      thresholds;
    Option.iter
      (fun r -> check_ratio (Printf.sprintf "--default-threshold %g" r) r)
      default_threshold;
    (* a repeated --threshold for one metric: the last occurrence wins,
       matching how flags usually override earlier ones *)
    let thresholds = List.rev thresholds in
    let dir = require_obs_dir obs_dir in
    let ea = or_die (Ledger.find ~dir a_ref) in
    let eb = or_die (Ledger.find ~dir b_ref) in
    let ka = Ledger.metric_kvs ea.Ledger.e_run in
    let kb = Ledger.metric_kvs eb.Ledger.e_run in
    let names = List.sort_uniq compare (List.map fst ka @ List.map fst kb) in
    let value l n = Option.value ~default:0.0 (List.assoc_opt n l) in
    let eps = 1e-9 in
    let regressions = ref [] in
    List.iter
      (fun name ->
        let before = value ka name and after = value kb name in
        if verbose && before <> after then
          Printf.printf "  %-44s %g -> %g\n" name before after;
        let threshold =
          match List.assoc_opt name thresholds with
          | Some r -> Some r
          | None -> if resource_metric name then None else default_threshold
        in
        match threshold with
        | Some r when after > (r *. before) +. eps ->
            regressions := (name, before, after, r) :: !regressions
        | _ -> ())
      names;
    List.iter
      (fun (n, b, a, r) ->
        Printf.printf "REGRESSION %-36s %g -> %g (threshold %gx)\n" n b a r)
      (List.rev !regressions);
    Printf.printf "diff %s .. %s: %d metric(s) compared, %d regression(s)\n"
      ea.Ledger.e_id eb.Ledger.e_id (List.length names)
      (List.length !regressions);
    (* non-zero so CI pipelines can gate on a run-over-run regression *)
    if !regressions <> [] then exit_with Obs_regression
  in
  let doc =
    "Diff two archived runs' metrics and percentiles; exits 5 when a \
     gated metric regressed (grew past its threshold ratio)."
  in
  Cmd.v (cmd_info "diff" ~doc)
    Term.(
      const (fun a b c d e f -> protecting (run a b c d e) f)
      $ obs_dir_arg
      $ run_ref_arg 0 "RUN_A"
      $ run_ref_arg 1 "RUN_B"
      $ thresholds $ default_threshold $ verbose)

let obs_top_cmd =
  let top_n =
    Arg.(
      value & opt int 10
      & info [ "n" ] ~docv:"N" ~doc:"Entries per ranking (default 10).")
  in
  let run obs_dir ref_ top_n =
    let dir = require_obs_dir obs_dir in
    let e = or_die (Ledger.find ~dir ref_) in
    let take n l = List.filteri (fun i _ -> i < n) l in
    let desc (_, a) (_, b) = compare (b : float) a in
    let spans =
      List.map
        (fun (k, (_, seconds, _, _)) -> (k, seconds))
        (Obs.snapshot_spans e.Ledger.e_run.Ledger.r_metrics)
    in
    Printf.printf "slowest spans of %s:\n" e.Ledger.e_id;
    List.iter
      (fun (k, v) -> Printf.printf "  %-28s %.6fs\n" k v)
      (take top_n (List.sort desc spans));
    let views =
      List.map
        (fun (v : Ledger.view) ->
          ((v.Ledger.v_rel, v.Ledger.v_status), v.Ledger.v_seconds))
        e.Ledger.e_run.Ledger.r_views
    in
    print_string "slowest views:\n";
    List.iter
      (fun ((rel, status), v) ->
        Printf.printf "  %-20s %-8s %.6fs\n" rel status v)
      (take top_n (List.sort desc views))
  in
  let doc = "Rank an archived run's slowest spans and views." in
  Cmd.v (cmd_info "top" ~doc)
    Term.(
      const (fun a b c -> protecting (run a b) c)
      $ obs_dir_arg
      $ run_ref_arg 0 "RUN"
      $ top_n)

let obs_prune_cmd =
  let keep =
    Arg.(
      value
      & opt (some int) None
      & info [ "keep" ] ~docv:"N" ~doc:"Keep only the newest $(docv) runs.")
  in
  let before =
    Arg.(
      value
      & opt (some int) None
      & info [ "before" ] ~docv:"SEQ"
          ~doc:"Delete every run with a sequence number below $(docv).")
  in
  let run obs_dir keep before =
    let dir = require_obs_dir obs_dir in
    (match (keep, before) with
    | Some k, _ when k < 0 -> or_die (Error "obs prune: --keep must be >= 0")
    | _ -> ());
    let removed, corrupt =
      Ledger.prune ~dir ?before ?keep ()
    in
    List.iter (fun id -> Printf.printf "  pruned: %s\n" id) removed;
    List.iter
      (fun fn -> Printf.printf "  removed corrupt: %s\n" fn)
      corrupt;
    Printf.printf "obs prune: %d run(s), %d corrupt file(s) removed -> %s\n"
      (List.length removed) (List.length corrupt) dir
  in
  let doc =
    "Delete archived runs by age ($(b,--before) a sequence number) \
     and/or count ($(b,--keep) the newest N); corrupt record files are \
     always removed."
  in
  Cmd.v (cmd_info "prune" ~doc)
    Term.(
      const (fun a b c -> protecting (run a b) c)
      $ obs_dir_arg $ keep $ before)

let obs_cmd =
  let doc = "Analyze the run telemetry ledger (list, show, diff, top, prune)." in
  Cmd.group (cmd_info "obs" ~doc)
    [
      obs_list_cmd; obs_show_cmd; obs_diff_cmd; obs_top_cmd; obs_prune_cmd;
    ]

(* ---- fuzz ---- *)

let fuzz_cmd =
  let open Hydra_synth in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Sweep seed. Workload $(i,i) of the sweep is synthesized from \
             the derived seed $(b,mix2)(S, i), so its identity is \
             independent of $(b,--count); equal seeds produce \
             byte-identical workload specs and pipeline outputs.")
  in
  let count_arg =
    Arg.(
      value & opt int 25
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of workloads to synthesize and fuzz (default 25).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "fuzz-reproducers"
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Directory for minimal reproducer specs (created on first \
             failure; untouched otherwise). Each failure writes \
             $(docv)/fuzz-<seed>-w<index>.hydra, replayable with \
             $(b,--replay).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"SPEC"
          ~doc:
            "Skip synthesis and run the invariant battery on the schema \
             and CCs of $(docv) — a reproducer written by a previous fuzz \
             run, or any hand-written spec.")
  in
  let run seed count out replay solve_mode =
    match replay with
    | Some path ->
        Fuzz.with_tmp_root ~prefix:"hydra-fuzz" (fun tmp_root ->
            match Fuzz.replay ~solve_mode ~tmp_root ~path () with
            | Ok digest -> Printf.printf "replay %s: ok digest=%s\n" path digest
            | Error f ->
                Printf.printf "replay %s: FAIL %s: %s\n" path f.Fuzz.f_invariant
                  f.Fuzz.f_detail;
                exit_with Fuzz_failure)
    | None ->
        if count < 1 then invalid_arg "--count must be at least 1";
        let sweep =
          Fuzz.with_tmp_root ~prefix:"hydra-fuzz" (fun tmp_root ->
              Fuzz.run_sweep ~solve_mode ~out_dir:out ~tmp_root
                ~seed ~count ~emit:print_endline ())
        in
        Printf.printf "fuzz: %d/%d workload(s) passed (seed %d)\n"
          sweep.Fuzz.sw_passed count seed;
        if sweep.Fuzz.sw_failures <> [] then exit_with Fuzz_failure
  in
  let doc =
    "Synthesize seeded random workloads and fuzz the whole pipeline end to \
     end: per workload, assert that regeneration never raises, the summary \
     round-trips save/load, output is byte-identical across $(b,--jobs), \
     across LP engines ($(b,--solve-mode) and its opposite), cache-warm \
     and journal-resume replays, audited validation reconciles, and \
     fully-exact runs validate with zero error. Failures shrink to a \
     minimal reproducer spec (exit 6)."
  in
  Cmd.v (cmd_info "fuzz" ~doc)
    Term.(
      const (fun a b c d e -> protecting (run a b c d) e)
      $ seed_arg $ count_arg $ out_arg $ replay_arg $ solve_mode_arg)

(* ---- inspect ---- *)

let inspect_cmd =
  let run spec_path summary_path =
    let spec = or_die (read_spec spec_path) in
    let summary =
      Hydra_core.Summary.load summary_path spec.Hydra_workload.Cc_parser.schema
    in
    Format.printf "%a" Hydra_core.Summary.pp summary
  in
  let doc = "Print the relation summaries contained in a summary file." in
  Cmd.v (cmd_info "inspect" ~doc)
    Term.(const (fun a b -> protecting (run a) b) $ spec_arg $ summary_pos_arg)

let main =
  let doc = "workload-dependent database regeneration (HYDRA, EDBT 2018)" in
  Cmd.group
    (Cmd.info "hydra" ~version:"1.0.0" ~doc ~exits)
    [
      summary_cmd; extract_cmd; materialize_cmd; validate_cmd; inspect_cmd;
      cache_cmd; obs_cmd; fuzz_cmd;
    ]

let () =
  (* a closed stdout must not kill the process before the file exports
     land: writing to it is an EPIPE [Sys_error] instead *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  parse_env_telemetry ();
  if Obs.enabled () then telemetry_on ();
  (* HYDRA_CHAOS arms fault injection for every subcommand, including
     those without a --chaos flag (e.g. materialize) *)
  or_die (Chaos.init_from_env ());
  (* the file exports must land even on the degraded-summary exit codes *)
  at_exit (fun () ->
      write_exports ();
      Obs.finish ();
      (* drop what a closed stdout could not take, so the runtime's own
         exit flush does not raise the EPIPE again *)
      try flush stdout with Sys_error _ -> close_out_noerr stdout);
  exit (Cmd.eval main)
