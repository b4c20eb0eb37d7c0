open Hydra_rel
open Hydra_workload
module Pipeline = Hydra_core.Pipeline
module Summary = Hydra_core.Summary
module Validate = Hydra_core.Validate
module Tuple_gen = Hydra_core.Tuple_gen
module Audit = Hydra_audit.Audit
module Cache = Hydra_cache.Cache
module Simplex = Hydra_lp.Simplex

(* ---- scratch-directory plumbing ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let with_tmp_root ~prefix f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- the invariant ladder ---- *)

(* Each rung either passes (returns) or short-circuits with the first
   failed invariant; details are deterministic strings so fuzz output is
   byte-reproducible. *)
exception Broke of string * string

let broke invariant fmt = Printf.ksprintf (fun d -> raise (Broke (invariant, d))) fmt

let summary_bytes dir tag (result : Pipeline.result) =
  let path = Filename.concat dir (tag ^ ".summary") in
  Summary.save path result.Pipeline.summary;
  read_file path

let regen_step invariant f =
  match f () with
  | r -> r
  | exception Broke (i, d) -> raise (Broke (i, d))
  | exception e -> broke invariant "%s" (Pipeline.exn_message e)

let battery_exn ~solve_mode ~dir schema ccs =
  (* spec-roundtrip: the interchange format must be able to carry this
     very constraint system to the vendor and back *)
  let emitted = Cc_parser.emit schema ccs in
  (match Cc_parser.parse emitted with
  | spec ->
      let again = Cc_parser.emit spec.Cc_parser.schema spec.Cc_parser.ccs in
      if again <> emitted then
        broke "spec-roundtrip" "re-emitted spec differs from original emission"
  | exception Cc_parser.Parse_error msg ->
      broke "spec-roundtrip" "emitted spec does not parse back: %s" msg
  | exception Schema.Schema_error msg ->
      broke "spec-roundtrip" "emitted spec does not parse back: %s" msg);
  (* regenerate never raises *)
  let base =
    regen_step "regenerate-raises" (fun () ->
        Pipeline.regenerate ~solve_mode schema ccs)
  in
  let base_bytes = summary_bytes dir "base" base in
  (* summary round-trip *)
  (let path = Filename.concat dir "base.summary" in
   match Summary.load path schema with
   | loaded ->
       let again = Filename.concat dir "reload.summary" in
       Summary.save again loaded;
       if read_file again <> base_bytes then
         broke "summary-roundtrip" "save -> load -> save changed the summary bytes"
   | exception Summary.Corrupt c ->
       broke "summary-roundtrip" "reload rejected the saved summary: %s"
         c.Summary.sum_reason
   | exception e ->
       broke "summary-roundtrip" "%s" (Pipeline.exn_message e));
  (* jobs determinism *)
  let par =
    regen_step "jobs-determinism" (fun () ->
        Pipeline.regenerate ~jobs:2 ~solve_mode schema ccs)
  in
  if summary_bytes dir "jobs" par <> base_bytes then
    broke "jobs-determinism" "--jobs 2 summary differs from sequential run";
  (* solve-mode differential: the float-first shadow engine and the
     all-exact engine must produce the same summary byte for byte *)
  let other_mode =
    match solve_mode with
    | Simplex.Exact -> Simplex.Float_first
    | Simplex.Float_first -> Simplex.Exact
  in
  let other =
    regen_step "solve-mode-differential" (fun () ->
        Pipeline.regenerate ~solve_mode:other_mode schema ccs)
  in
  if summary_bytes dir "mode" other <> base_bytes then
    broke "solve-mode-differential" "%s summary differs from %s run"
      (Simplex.mode_to_string other_mode)
      (Simplex.mode_to_string solve_mode);
  (* cache replay: cold populates, warm must serve byte-identically *)
  let cache = Cache.create ~dir:(Filename.concat dir "cache") in
  let cold =
    regen_step "cache-replay" (fun () -> Pipeline.regenerate ~cache ~solve_mode schema ccs)
  in
  if summary_bytes dir "cold" cold <> base_bytes then
    broke "cache-replay" "cache-cold summary differs from uncached run";
  let warm =
    regen_step "cache-replay" (fun () -> Pipeline.regenerate ~cache ~solve_mode schema ccs)
  in
  if summary_bytes dir "warm" warm <> base_bytes then
    broke "cache-replay" "cache-warm summary differs from cold run";
  (* every view that reached a store is served from it on the rerun;
     the shared cache never stores a failure (a Fallback view) *)
  let served tier (v : Pipeline.view_stats) =
    v.Pipeline.fingerprint = "" || v.Pipeline.tier = tier
  in
  let stored (v : Pipeline.view_stats) =
    match v.Pipeline.status with Pipeline.Fallback _ -> false | _ -> true
  in
  if
    List.exists
      (fun v -> stored v && not (served Hydra_core.Formulate.Cache v))
      warm.Pipeline.views
  then broke "cache-replay" "cache-warm run re-solved a stored view";
  (* journal resume: a second run over the same state dir replays *)
  let state_dir = Filename.concat dir "state" in
  let j1 =
    regen_step "journal-resume" (fun () ->
        Pipeline.regenerate ~state_dir ~solve_mode schema ccs)
  in
  if summary_bytes dir "j1" j1 <> base_bytes then
    broke "journal-resume" "journaled summary differs from plain run";
  let j2 =
    regen_step "journal-resume" (fun () ->
        Pipeline.regenerate ~state_dir ~solve_mode schema ccs)
  in
  if summary_bytes dir "j2" j2 <> base_bytes then
    broke "journal-resume" "journal replay differs from recorded run";
  if not (List.for_all (served Hydra_core.Formulate.State) j2.Pipeline.views) then
    broke "journal-resume" "state-dir rerun re-solved a recorded view";
  (* audited validation over the dynamically generated database *)
  let db = Tuple_gen.dynamic base.Pipeline.summary in
  let trail = Audit.create () in
  let v =
    match Validate.check ~audit:trail db ccs with
    | v -> v
    | exception e -> broke "audit-reconcile" "%s" (Pipeline.exn_message e)
  in
  if not (Validate.reconciles_audit v (Audit.by_relation (Audit.records trail)))
  then broke "audit-reconcile" "validation and audit roll-ups disagree";
  (* measured CC systems are satisfiable: a fully-Exact run with no
     grouping residuals and no integrity-repair additions (repair tuples
     legitimately perturb counts — Fig. 11, bounded error by design)
     owes zero volumetric error *)
  if
    (not (Pipeline.degraded base.Pipeline.diagnostics))
    && base.Pipeline.group_residuals = []
    && List.for_all
         (fun (_, n) -> n = 0)
         base.Pipeline.summary.Summary.extra_tuples
    && v.Validate.max_abs_error <> 0.0
  then
    broke "exactness" "all views Exact yet max |rel_error| = %g"
      v.Validate.max_abs_error;
  Digest.to_hex (Digest.string base_bytes)

let battery ?(solve_mode = Simplex.Exact) ~dir schema ccs =
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match battery_exn ~solve_mode ~dir schema ccs with
      | digest -> Ok digest
      | exception Broke (invariant, detail) -> Error (invariant, detail))

(* ---- shrinking ---- *)

let fails_same ~solve_mode ~dir ~invariant schema ccs =
  match battery ~solve_mode ~dir schema ccs with
  | Error (i, _) -> String.equal i invariant
  | Ok _ -> false

let shrink ?(solve_mode = Simplex.Exact) ~dir ~invariant schema ccs =
  let scratch = ref 0 in
  let next_dir () =
    incr scratch;
    Filename.concat dir (Printf.sprintf "shrink%d" !scratch)
  in
  (* greedy one-at-a-time removal to a fixpoint; every candidate is
     retested against the original invariant so minimization cannot
     drift onto a different bug *)
  let rec pass ccs =
    let n = List.length ccs in
    let rec drop i =
      if i >= n then ccs
      else
        let candidate = List.filteri (fun j _ -> j <> i) ccs in
        if fails_same ~solve_mode ~dir:(next_dir ()) ~invariant schema candidate
        then
          pass candidate
        else drop (i + 1)
    in
    drop 0
  in
  pass ccs

(* ---- per-workload run ---- *)

type failure = { f_invariant : string; f_detail : string; f_spec : string }
type verdict = Passed of { digest : string; desc : string } | Failed of failure

let reproducer_header ~seed ~invariant ~detail =
  Printf.sprintf
    "# hydra fuzz reproducer\n# seed %d\n# invariant %s\n# detail %s\n" seed
    invariant detail

let run_workload ?(config = Synth.default_config)
    ?(solve_mode = Simplex.Exact) ~tmp_root ~seed () =
  match Synth.generate ~config ~seed () with
  | exception e ->
      Failed
        {
          f_invariant = "synthesize";
          f_detail = Pipeline.exn_message e;
          f_spec = "";
        }
  | t -> (
      let dir = Filename.concat tmp_root (Printf.sprintf "w%d" seed) in
      match battery ~solve_mode ~dir t.Synth.schema t.Synth.ccs with
      | Ok _ -> Passed { digest = Synth.digest t; desc = Synth.describe t }
      | Error (invariant, detail) ->
          let shrink_dir = Filename.concat tmp_root (Printf.sprintf "s%d" seed) in
          mkdir_p shrink_dir;
          let minimal =
            Fun.protect
              ~finally:(fun () -> rm_rf shrink_dir)
              (fun () ->
                shrink ~solve_mode ~dir:shrink_dir ~invariant t.Synth.schema
                  t.Synth.ccs)
          in
          let spec =
            reproducer_header ~seed ~invariant ~detail
            ^ Cc_parser.emit t.Synth.schema minimal
          in
          Failed { f_invariant = invariant; f_detail = detail; f_spec = spec })

(* ---- sweeps ---- *)

type sweep = { sw_passed : int; sw_failures : (int * failure) list }

let run_sweep ?(config = Synth.default_config) ?(solve_mode = Simplex.Exact)
    ?out_dir ~tmp_root ~seed ~count ~emit () =
  let passed = ref 0 and failures = ref [] in
  for i = 0 to count - 1 do
    let wseed = Rng.mix2 seed i in
    match run_workload ~config ~solve_mode ~tmp_root ~seed:wseed () with
    | Passed { digest; desc } ->
        incr passed;
        emit (Printf.sprintf "w%03d seed=%d ok %s digest=%s" i wseed desc digest)
    | Failed f ->
        failures := (i, f) :: !failures;
        let where =
          match out_dir with
          | Some d when f.f_spec <> "" ->
              mkdir_p d;
              let path =
                Filename.concat d (Printf.sprintf "fuzz-%d-w%03d.hydra" seed i)
              in
              write_file path f.f_spec;
              " -> " ^ path
          | _ -> ""
        in
        emit
          (Printf.sprintf "w%03d seed=%d FAIL %s: %s%s" i wseed f.f_invariant
             f.f_detail where)
  done;
  { sw_passed = !passed; sw_failures = List.rev !failures }

let replay ?(solve_mode = Simplex.Exact) ~tmp_root ~path () =
  let spec = Cc_parser.parse_file path in
  let dir = Filename.concat tmp_root "replay" in
  match battery ~solve_mode ~dir spec.Cc_parser.schema spec.Cc_parser.ccs with
  | Ok digest -> Ok digest
  | Error (invariant, detail) ->
      Error
        {
          f_invariant = invariant;
          f_detail = detail;
          f_spec = read_file path;
        }
