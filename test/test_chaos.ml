(* The crash-safety battery: deterministic fault injection (hydra.chaos),
   hardened durable I/O, task retries, the crash states of the
   run-scoped store, and the headline acceptance property — kill a
   regeneration at any registered site, resume with the same
   --state-dir, and the summary comes out byte-identical to an
   uninterrupted run, at any jobs count. *)

module Chaos = Hydra_chaos.Chaos
module Durable_io = Hydra_durable.Durable_io
module Cache = Hydra_cache.Cache
module Pool = Hydra_par.Pool
module Supervisor = Hydra_par.Supervisor
module Obs = Hydra_obs.Obs
module Formulate = Hydra_core.Formulate
module Pipeline = Hydra_core.Pipeline
module Summary = Hydra_core.Summary
module Tuple_gen = Hydra_core.Tuple_gen
module Cc_parser = Hydra_workload.Cc_parser

let tmpdir () =
  let d = Filename.temp_file "hydra_test_chaos" "" in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- chaos plans ---- *)

let test_parse () =
  (match Chaos.parse "site=solve,kind=transient,after=3,times=2" with
  | Ok p ->
      Alcotest.(check string) "site" "solve" p.Chaos.site;
      Alcotest.(check bool) "kind" true (p.Chaos.kind = Chaos.Transient);
      Alcotest.(check int) "after" 3 p.Chaos.after;
      Alcotest.(check int) "times" 2 p.Chaos.times
  | Error e -> Alcotest.fail e);
  match Chaos.parse "site=journal.append" with
  | Ok p ->
      Alcotest.(check bool) "default kind is crash" true
        (p.Chaos.kind = Chaos.Crash);
      Alcotest.(check int) "default after" 1 p.Chaos.after;
      Alcotest.(check int) "default times" 1 p.Chaos.times
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  let bad spec =
    match Chaos.parse spec with
    | Ok _ -> Alcotest.failf "accepted %S" spec
    | Error _ -> ()
  in
  bad "";
  bad "kind=crash";
  bad "site=nonexistent.site";
  bad "site=solve,kind=gentle";
  bad "site=solve,after=zero";
  bad "site=solve,after=0";
  bad "site=solve,bogus=1"

let test_tap_window () =
  Chaos.with_plan
    { Chaos.site = "solve"; kind = Chaos.Transient; after = 2; times = 1 }
    (fun () ->
      Chaos.tap "solve" (* pass 1: before the window *);
      Chaos.tap "cache.read" (* other sites never fire *);
      (match Chaos.tap "solve" with
      | () -> Alcotest.fail "pass 2 must fire"
      | exception Chaos.Injected site ->
          Alcotest.(check string) "carries the site" "solve" site);
      Chaos.tap "solve" (* pass 3: past the window *);
      Alcotest.(check int) "fired once" 1 (Chaos.fired ()));
  Alcotest.(check bool) "with_plan disarms" true (Chaos.armed () = None)

let test_tap_unlimited () =
  Chaos.with_plan
    { Chaos.site = "solve"; kind = Chaos.Transient; after = 1; times = 0 }
    (fun () ->
      for _ = 1 to 5 do
        match Chaos.tap "solve" with
        | () -> Alcotest.fail "times=0 fires every pass"
        | exception Chaos.Injected _ -> ()
      done;
      Alcotest.(check int) "fired every pass" 5 (Chaos.fired ()))

let test_crash_kind () =
  Chaos.with_plan
    { Chaos.site = "summary.save"; kind = Chaos.Crash; after = 1; times = 1 }
    (fun () ->
      match Chaos.tap "summary.save" with
      | () -> Alcotest.fail "crash plan must raise"
      | exception Chaos.Crashed site ->
          Alcotest.(check string) "carries the site" "summary.save" site)

let test_disarmed_is_silent () =
  Chaos.disarm ();
  for _ = 1 to 1000 do
    List.iter Chaos.tap Chaos.sites
  done;
  Alcotest.(check bool) "nothing armed" true (Chaos.armed () = None)

let test_arm_rejects_unknown_site () =
  match
    Chaos.arm { Chaos.site = "no.such.site"; kind = Chaos.Crash; after = 1; times = 1 }
  with
  | () ->
      Chaos.disarm ();
      Alcotest.fail "unknown site must be rejected"
  | exception Invalid_argument _ -> ()

let test_is_injected () =
  Alcotest.(check bool) "Injected" true (Chaos.is_injected (Chaos.Injected "x"));
  Alcotest.(check bool) "Crashed" true (Chaos.is_injected (Chaos.Crashed "x"));
  Alcotest.(check bool) "ordinary exn" false (Chaos.is_injected (Failure "x"))

(* ---- durable I/O ---- *)

let with_scratch_dir f =
  let dir = tmpdir () in
  Durable_io.mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_atomic_digest_roundtrip () =
  with_scratch_dir (fun dir ->
      let path = Filename.concat dir "artifact" in
      Durable_io.write_atomic ~digest:true path (fun b ->
          Buffer.add_string b "hello\nworld\n");
      Alcotest.(check string) "body comes back without the trailer"
        "hello\nworld\n"
        (Durable_io.read_verified path);
      Alcotest.(check bool) "trailer is on disk" true
        (contains ~sub:Durable_io.digest_trailer_prefix (read_file path));
      Alcotest.(check int) "no temp debris left behind" 1
        (Array.length (Sys.readdir dir)))

let test_no_trailer_passthrough () =
  with_scratch_dir (fun dir ->
      let path = Filename.concat dir "plain" in
      write_file path "pre-digest content\n";
      Alcotest.(check string) "trailerless files read as-is"
        "pre-digest content\n"
        (Durable_io.read_verified path))

let test_tamper_detected () =
  with_scratch_dir (fun dir ->
      let path = Filename.concat dir "artifact" in
      Durable_io.write_atomic ~digest:true path (fun b ->
          Buffer.add_string b "precious bytes\n");
      let raw = Bytes.of_string (read_file path) in
      Bytes.set raw 0 'X';
      write_file path (Bytes.to_string raw);
      match Durable_io.read_verified path with
      | _ -> Alcotest.fail "tampered body must not verify"
      | exception Durable_io.Corrupt c ->
          Alcotest.(check string) "names the file" path c.Durable_io.dur_path)

let test_malformed_trailer () =
  with_scratch_dir (fun dir ->
      let path = Filename.concat dir "artifact" in
      write_file path ("body\n" ^ Durable_io.digest_trailer_prefix ^ "nothex\n");
      match Durable_io.read_verified path with
      | _ -> Alcotest.fail "malformed trailer must not verify"
      | exception Durable_io.Corrupt _ -> ())

(* ---- task retries ---- *)

let test_retry_rule () =
  Pool.with_pool 2 (fun pool ->
      let tries = Array.init 4 (fun _ -> Atomic.make 0) in
      let results, attempts =
        Supervisor.map_range pool 4 (fun i ->
            let k = Atomic.fetch_and_add tries.(i) 1 in
            match i with
            | 0 when k < 2 -> raise (Chaos.Injected "test")
            | 1 -> raise (Chaos.Injected "test")
            | 2 -> failwith "deterministic bug"
            | _ -> i)
      in
      let tries = Array.map Atomic.get tries in
      Alcotest.(check (array int)) "runs per index" [| 3; 3; 1; 1 |] tries;
      Alcotest.(check (array int)) "attempts match the runs" tries attempts;
      Alcotest.(check bool) "third attempt recovers" true (results.(0) = Ok 0);
      Alcotest.(check bool) "two retries exhaust" true
        (Result.is_error results.(1));
      Alcotest.(check bool) "other failures are final" true
        (Result.is_error results.(2)))

let test_transient_retried_recovers () =
  Pool.with_pool 4 (fun pool ->
      let tries = Array.init 8 (fun _ -> Atomic.make 0) in
      let results, attempts =
        Supervisor.map_range pool 8 (fun i ->
            if Atomic.fetch_and_add tries.(i) 1 = 0 && i = 2 then
              raise (Chaos.Injected "test")
            else i * 10)
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "result slotted by index" (i * 10) v
          | Error _ -> Alcotest.failf "index %d should have recovered" i)
        results;
      Alcotest.(check int) "faulty index took two attempts" 2 attempts.(2);
      Alcotest.(check bool) "others took one" true
        (Array.for_all (fun a -> a >= 1) attempts
        && Array.to_list attempts |> List.filter (( = ) 2) |> List.length = 1);
      Alcotest.(check bool) "retry incident in the event ring" true
        (List.exists
           (fun (e : Obs.event) -> e.Obs.ev_msg = "par.task_retry")
           (Obs.recent_events ())))

let test_transient_exhausted () =
  Pool.with_pool 2 (fun pool ->
      let results, attempts =
        Supervisor.map_range pool 4 (fun i ->
            if i = 1 then raise (Chaos.Injected "test") else i)
      in
      (match results.(1) with
      | Error f ->
          Alcotest.(check int) "failure keeps its index" 1 f.Pool.f_index;
          Alcotest.(check bool) "carries the injected exn" true
            (Chaos.is_injected f.Pool.f_exn)
      | Ok _ -> Alcotest.fail "index 1 must exhaust its retries");
      Alcotest.(check int) "first try + two retries" 3 attempts.(1);
      Alcotest.(check bool) "failure incident in the event ring" true
        (List.exists
           (fun (e : Obs.event) -> e.Obs.ev_msg = "par.task_failed")
           (Obs.recent_events ())))

let test_fatal_not_retried () =
  Pool.with_pool 2 (fun pool ->
      let results, attempts =
        Supervisor.map_range pool 3 (fun i ->
            if i = 0 then failwith "deterministic bug" else i)
      in
      (match results.(0) with
      | Error f -> (
          match f.Pool.f_exn with
          | Failure m -> Alcotest.(check string) "exn intact" "deterministic bug" m
          | e -> Alcotest.fail (Printexc.to_string e))
      | Ok _ -> Alcotest.fail "fatal task cannot succeed");
      Alcotest.(check int) "fatal failures get one attempt" 1 attempts.(0))

exception Deadline_exceeded

let test_deadline_not_retried () =
  Pool.with_pool 2 (fun pool ->
      let results, attempts =
        Supervisor.map_range pool 2 (fun i ->
            if i = 1 then raise Deadline_exceeded else i)
      in
      (match results.(1) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "deadline task cannot succeed");
      Alcotest.(check int) "deadline failures are a budget decision" 1
        attempts.(1))

let test_crashed_reraised_unwrapped () =
  Pool.with_pool 2 (fun pool ->
      match
        Supervisor.map_range pool 4 (fun i ->
            if i = 2 then raise (Chaos.Crashed "pool.task") else i)
      with
      | _ -> Alcotest.fail "simulated crash must unwind"
      | exception Chaos.Crashed site ->
          Alcotest.(check string) "crash site intact" "pool.task" site)

(* ---- cache scrub ---- *)

let test_scrub_report_and_delete () =
  with_scratch_dir (fun dir ->
      let c = Cache.create ~dir in
      let good1 = String.make 32 'a' and good2 = String.make 32 'b' in
      Cache.store c ~key:good1 "payload one";
      Cache.store c ~key:good2 "payload two";
      (* a garbled entry and a well-formed entry under an unsafe name *)
      write_file (Filename.concat dir "00ff.entry") "garbage";
      write_file
        (Filename.concat dir "zz-not-a-key.entry")
        (read_file (Cache.entry_path c ~key:good1));
      let r = Cache.scrub ~dir () in
      Alcotest.(check int) "examined all entries" 4 r.Cache.sr_total;
      Alcotest.(check int) "good entries pass" 2 r.Cache.sr_ok;
      Alcotest.(check (list string)) "bad files reported in order"
        [ "00ff.entry"; "zz-not-a-key.entry" ]
        (List.map (fun b -> b.Cache.be_file) r.Cache.sr_bad);
      Alcotest.(check int) "report mode deletes nothing" 0 r.Cache.sr_deleted;
      let r2 = Cache.scrub ~delete:true ~dir () in
      Alcotest.(check int) "delete mode removes the bad" 2 r2.Cache.sr_deleted;
      let r3 = Cache.scrub ~dir () in
      Alcotest.(check int) "cache is clean after" 2 r3.Cache.sr_total;
      Alcotest.(check int) "nothing bad remains" 0
        (List.length r3.Cache.sr_bad);
      Alcotest.(check (option string)) "good entries survive the scrub"
        (Some "payload one")
        (Cache.find c ~key:good1))

(* ---- summary durability ---- *)

(* the same 3-view workload the cache tests replay; R's summary is large
   enough (80000 tuples) to exercise the sharded materialization path *)
let spec_text =
  {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 400;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
cc |sigma(S.A in [20,60) and T.C in [2,3))(R join S join T)| = 30000;
cc |delta(S.A)(sigma(S.A in [20,60))(S))| = 12;
|}

let baseline_result =
  lazy
    (let spec = Cc_parser.parse spec_text in
     Pipeline.regenerate spec.Cc_parser.schema spec.Cc_parser.ccs)

let summary_bytes s =
  let path = Filename.temp_file "hydra_test_chaos" ".summary" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Summary.save path s;
      read_file path)

let baseline_bytes = lazy (summary_bytes (Lazy.force baseline_result).Pipeline.summary)

let spec_schema = lazy ((Cc_parser.parse spec_text).Cc_parser.schema)

let load_summary path = Summary.load path (Lazy.force spec_schema)

let with_summary_file f =
  with_scratch_dir (fun dir ->
      let path = Filename.concat dir "db.summary" in
      Summary.save path (Lazy.force baseline_result).Pipeline.summary;
      f path)

let test_summary_digest_tamper () =
  with_summary_file (fun path ->
      let raw = Bytes.of_string (read_file path) in
      Bytes.set raw 0 (if Bytes.get raw 0 = 'X' then 'Y' else 'X');
      write_file path (Bytes.to_string raw);
      match load_summary path with
      | _ -> Alcotest.fail "tampered summary must not load"
      | exception Summary.Corrupt c ->
          Alcotest.(check int) "whole-file corruption reports line 0" 0
            c.Summary.sum_line)

let test_summary_unterminated_block () =
  with_summary_file (fun path ->
      let body = Durable_io.read_verified path in
      let needle = "\nend\n" in
      let cut =
        let n = String.length needle in
        let rec go i =
          if i + n > String.length body then -1
          else if String.sub body i n = needle then i
          else go (i + 1)
        in
        go 0
      in
      Alcotest.(check bool) "fixture has a block terminator" true (cut >= 0);
      (* drop everything from the first "end" on (and the preceding
         newline, so the file ends mid-block): the block never closes *)
      write_file path (String.sub body 0 cut);
      match load_summary path with
      | _ -> Alcotest.fail "unterminated block must not load"
      | exception Summary.Corrupt c ->
          Alcotest.(check bool) "diagnosis names the tear" true
            (contains ~sub:"unterminated" c.Summary.sum_reason);
          Alcotest.(check bool) "line number points into the file" true
            (c.Summary.sum_line > 0))

let test_summary_trailerless_compat () =
  with_summary_file (fun path ->
      let reference = load_summary path in
      write_file path (Durable_io.read_verified path);
      let s = load_summary path in
      Alcotest.(check string) "pre-digest summaries still load"
        (summary_bytes reference) (summary_bytes s))

let test_summary_crash_at_save_keeps_old () =
  with_summary_file (fun path ->
      let before = read_file path in
      Chaos.with_plan
        { Chaos.site = "summary.save"; kind = Chaos.Crash; after = 1; times = 1 }
        (fun () ->
          match
            Summary.save path (Lazy.force baseline_result).Pipeline.summary
          with
          | () -> Alcotest.fail "armed save must crash"
          | exception Chaos.Crashed _ -> ());
      Alcotest.(check string) "previous artifact intact" before
        (read_file path);
      Alcotest.(check bool) "and still loads" true
        (match load_summary path with _ -> true))

(* ---- chaos through the pipeline: crash anywhere, resume identically ---- *)

let regen ?cache ?state_dir ~jobs () =
  let spec = Cc_parser.parse spec_text in
  Pipeline.regenerate ?cache ?state_dir ~jobs spec.Cc_parser.schema
    spec.Cc_parser.ccs

let crash_resume_case ~site ~jobs =
  let sdir = tmpdir () and cdir = tmpdir () in
  Fun.protect
    ~finally:(fun () ->
      Chaos.disarm ();
      rm_rf sdir;
      rm_rf cdir)
    (fun () ->
      (* cache.* sites only tap when a cache is attached *)
      let cache =
        if String.length site >= 5 && String.sub site 0 5 = "cache" then
          Some (Cache.create ~dir:cdir)
        else None
      in
      Chaos.arm { Chaos.site; kind = Chaos.Crash; after = 2; times = 1 };
      (match regen ?cache ~state_dir:sdir ~jobs () with
      | _ -> Alcotest.failf "%s jobs=%d: expected a simulated crash" site jobs
      | exception Chaos.Crashed s ->
          Alcotest.(check string)
            (Printf.sprintf "%s jobs=%d: crash site" site jobs)
            site s);
      Chaos.disarm ();
      let resumed = regen ?cache ~state_dir:sdir ~jobs () in
      Alcotest.(check string)
        (Printf.sprintf "%s jobs=%d: resume is byte-identical" site jobs)
        (Lazy.force baseline_bytes)
        (summary_bytes resumed.Pipeline.summary);
      (* sequential runs always journal at least one view before pass 2 *)
      if jobs = 1 then
        Alcotest.(check bool)
          (Printf.sprintf "%s jobs=1: at least one view replayed" site)
          true
          (List.exists
             (fun (v : Pipeline.view_stats) ->
               v.Pipeline.tier = Formulate.State)
             resumed.Pipeline.views))

let battery_sites =
  [ "solve"; "pool.task"; "cache.read"; "cache.write"; "journal.append" ]

let test_crash_resume_battery_seq () =
  List.iter (fun site -> crash_resume_case ~site ~jobs:1) battery_sites

let test_crash_resume_battery_par () =
  List.iter (fun site -> crash_resume_case ~site ~jobs:4) battery_sites

let test_completed_run_replays_fully () =
  let sdir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf sdir)
    (fun () ->
      let first = regen ~state_dir:sdir ~jobs:1 () in
      Alcotest.(check bool) "cold run solves every view" true
        (List.for_all
           (fun (v : Pipeline.view_stats) ->
             v.Pipeline.tier = Formulate.Solve)
           first.Pipeline.views);
      let again = regen ~state_dir:sdir ~jobs:4 () in
      Alcotest.(check bool) "second run replays every view" true
        (List.for_all
           (fun (v : Pipeline.view_stats) ->
             v.Pipeline.tier = Formulate.State)
           again.Pipeline.views);
      Alcotest.(check string) "replayed bytes identical"
        (Lazy.force baseline_bytes)
        (summary_bytes again.Pipeline.summary))

(* one injected transient fault at [site]: the supervisor retries it,
   and the output is indistinguishable from an undisturbed run. At
   [pool.task] it fires in [Pool.guarded], before the view function *)
let transient_fault_transparent ~site ~widths () =
  List.iter
    (fun jobs ->
      Chaos.with_plan
        { Chaos.site; kind = Chaos.Transient; after = 1; times = 1 }
        (fun () ->
          let r = regen ~jobs () in
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d: retried run byte-identical" jobs)
            (Lazy.force baseline_bytes)
            (summary_bytes r.Pipeline.summary);
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: a view consumed a retry" jobs)
            true
            (List.exists
               (fun (v : Pipeline.view_stats) -> v.Pipeline.attempts > 1)
               r.Pipeline.views);
          Alcotest.(check bool) "the retry left an incident trail" true
            (List.exists
               (fun (e : Obs.event) -> e.Obs.ev_msg = "par.task_retry")
               (Obs.recent_events ()))))
    widths

let test_materialize_shard_faults_aggregate () =
  let summary = (Lazy.force baseline_result).Pipeline.summary in
  (* keep only relations big enough to shard (R at 80000 rows) so every
     pass through the site is a pooled task *)
  let sharded =
    { summary with
      Summary.relations =
        List.filter
          (fun (rs : Summary.relation_summary) -> rs.Summary.rs_total > 4096)
          summary.Summary.relations;
    }
  in
  Alcotest.(check bool) "fixture has a shardable relation" true
    (sharded.Summary.relations <> []);
  Chaos.with_plan
    { Chaos.site = "materialize.shard";
      kind = Chaos.Transient;
      after = 1;
      times = 0;
    }
    (fun () ->
      match Tuple_gen.materialize ~jobs:4 sharded with
      | _ -> Alcotest.fail "expected injected shard failures"
      | exception Pool.Batch_failure fs ->
          Alcotest.(check int) "every shard's failure aggregated" 4
            (List.length fs);
          List.iter
            (fun (f : Pool.failure) ->
              match f.Pool.f_exn with
              | Chaos.Injected site ->
                  Alcotest.(check string) "site intact" "materialize.shard" site
              | e -> Alcotest.fail (Printexc.to_string e))
            fs)

(* ---- crash states of the run-scoped store ----

   Start from a finished run's state dir and enumerate the states a
   crash (or later damage) can leave it in: every subset of entries
   missing, every byte-prefix of each entry, every one-bit flip of each
   entry, an orphan temp file. In each, the resumed summary must be
   byte-identical to the reference run, and a view must replay from the
   store exactly when its entry is intact, so a damaged entry is a miss
   and never a wrong value. *)

let test_state_crash_states () =
  let sdir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf sdir)
    (fun () ->
      let finished = regen ~state_dir:sdir ~jobs:1 () in
      let store = Cache.create_with Cache.Durable ~dir:sdir in
      let entries =
        List.map
          (fun (v : Pipeline.view_stats) ->
            let path = Cache.entry_path store ~key:v.Pipeline.fingerprint in
            (v.Pipeline.rel, path, read_file path))
          finished.Pipeline.views
      in
      Alcotest.(check int) "one entry per view, nothing else" 3
        (Array.length (Sys.readdir sdir));
      let case label ~intact damage =
        rm_rf sdir;
        Durable_io.mkdir_p sdir;
        List.iter (fun (_, path, bytes) -> write_file path bytes) entries;
        damage ();
        let r = regen ~state_dir:sdir ~jobs:1 () in
        Alcotest.(check string)
          (label ^ ": resume is byte-identical")
          (Lazy.force baseline_bytes)
          (summary_bytes r.Pipeline.summary);
        List.iter
          (fun (v : Pipeline.view_stats) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: view %s replays iff its entry is intact"
                 label v.Pipeline.rel)
              (List.mem v.Pipeline.rel intact)
              (v.Pipeline.tier = Formulate.State))
          r.Pipeline.views
      in
      let rels = List.map (fun (rel, _, _) -> rel) entries in
      for mask = 0 to (1 lsl List.length entries) - 1 do
        let deleted i = mask land (1 lsl i) <> 0 in
        case
          (Printf.sprintf "deleted subset %d" mask)
          ~intact:(List.filteri (fun i _ -> not (deleted i)) rels)
          (fun () ->
            List.iteri
              (fun i (_, path, _) -> if deleted i then Sys.remove path)
              entries)
      done;
      List.iter
        (fun (rel, path, bytes) ->
          let others = List.filter (( <> ) rel) rels in
          for n = 0 to String.length bytes - 1 do
            case
              (Printf.sprintf "%s truncated to %d bytes" rel n)
              ~intact:others
              (fun () -> write_file path (String.sub bytes 0 n));
            (* bit rot: the entry's digests must reject any one flip *)
            case
              (Printf.sprintf "%s byte %d flipped" rel n)
              ~intact:others
              (fun () ->
                let b = Bytes.of_string bytes in
                Bytes.set b n (Char.chr (Char.code bytes.[n] lxor 1));
                write_file path (Bytes.to_string b))
          done)
        entries;
      case "orphan temp file" ~intact:rels (fun () ->
          let _, _, bytes = List.hd entries in
          write_file (Filename.concat sdir ".hydra-durable0f1e2d.tmp") bytes))

(* ---- qcheck sweep: random site / trigger / parallelism ---- *)

let small_spec_text =
  {|
table S (A int [0,20));
table T (B int [0,10));
cc |S| = 500; cc |T| = 300;
cc |sigma(S.A in [5,15))(S)| = 200;
cc |sigma(T.B in [2,6))(T)| = 120;
|}

let small_baseline =
  lazy
    (let spec = Cc_parser.parse small_spec_text in
     summary_bytes
       (Pipeline.regenerate spec.Cc_parser.schema spec.Cc_parser.ccs)
         .Pipeline.summary)

let sweep_sites = Array.of_list battery_sites

let crash_sweep =
  QCheck.Test.make ~name:"crash at a random site/pass, resume byte-identical"
    ~count:20
    QCheck.(triple (int_bound (Array.length sweep_sites - 1)) (int_range 1 6) bool)
    (fun (site_i, after, par) ->
      let site = sweep_sites.(site_i) in
      let jobs = if par then 4 else 1 in
      let sdir = tmpdir () and cdir = tmpdir () in
      Fun.protect
        ~finally:(fun () ->
          Chaos.disarm ();
          rm_rf sdir;
          rm_rf cdir)
        (fun () ->
          let spec = Cc_parser.parse small_spec_text in
          let cache = Cache.create ~dir:cdir in
          let run () =
            Pipeline.regenerate ~cache ~state_dir:sdir ~jobs
              spec.Cc_parser.schema spec.Cc_parser.ccs
          in
          Chaos.arm { Chaos.site; kind = Chaos.Crash; after; times = 1 };
          let final =
            match run () with
            | r -> r (* the plan never triggered: after > total passes *)
            | exception Chaos.Crashed _ ->
                Chaos.disarm ();
                run ()
          in
          Chaos.disarm ();
          String.equal (Lazy.force small_baseline)
            (summary_bytes final.Pipeline.summary)))

(* ---- registration ---- *)

let suite =
  [
    ( "chaos-plans",
      [
        Alcotest.test_case "parse: full spec and defaults" `Quick test_parse;
        Alcotest.test_case "parse: malformed specs rejected" `Quick
          test_parse_errors;
        Alcotest.test_case "tap fires exactly inside the window" `Quick
          test_tap_window;
        Alcotest.test_case "times=0 fires on every pass" `Quick
          test_tap_unlimited;
        Alcotest.test_case "crash plans raise Crashed" `Quick test_crash_kind;
        Alcotest.test_case "disarmed taps are silent" `Quick
          test_disarmed_is_silent;
        Alcotest.test_case "unknown sites rejected at arm time" `Quick
          test_arm_rejects_unknown_site;
        Alcotest.test_case "is_injected covers both chaos exns" `Quick
          test_is_injected;
      ] );
    ( "durable-io",
      [
        Alcotest.test_case "atomic digested write roundtrips" `Quick
          test_atomic_digest_roundtrip;
        Alcotest.test_case "trailerless files pass through" `Quick
          test_no_trailer_passthrough;
        Alcotest.test_case "tampered bytes raise Corrupt" `Quick
          test_tamper_detected;
        Alcotest.test_case "malformed trailer raises Corrupt" `Quick
          test_malformed_trailer;
      ] );
    ( "supervisor",
      [
        Alcotest.test_case "only injected faults are retried, at most twice"
          `Quick test_retry_rule;
        Alcotest.test_case "transient failure retried to recovery" `Quick
          test_transient_retried_recovers;
        Alcotest.test_case "retries exhaust into an Error slot" `Quick
          test_transient_exhausted;
        Alcotest.test_case "fatal failures are not retried" `Quick
          test_fatal_not_retried;
        Alcotest.test_case "deadline failures are not retried" `Quick
          test_deadline_not_retried;
        Alcotest.test_case "Crashed re-raised unwrapped" `Quick
          test_crashed_reraised_unwrapped;
      ] );
    ( "cache-scrub",
      [
        Alcotest.test_case "scrub reports and deletes bad entries" `Quick
          test_scrub_report_and_delete;
      ] );
    ( "summary-durability",
      [
        Alcotest.test_case "digest tamper raises Corrupt" `Quick
          test_summary_digest_tamper;
        Alcotest.test_case "unterminated block raises Corrupt" `Quick
          test_summary_unterminated_block;
        Alcotest.test_case "pre-digest files still load" `Quick
          test_summary_trailerless_compat;
        Alcotest.test_case "crash during save keeps the old artifact" `Quick
          test_summary_crash_at_save_keeps_old;
      ] );
    ( "crash-resume",
      [
        Alcotest.test_case "battery: every site, jobs=1" `Quick
          test_crash_resume_battery_seq;
        Alcotest.test_case "battery: every site, jobs=4" `Quick
          test_crash_resume_battery_par;
        Alcotest.test_case "completed run replays fully from the journal"
          `Quick test_completed_run_replays_fully;
        Alcotest.test_case "every crash state of the state dir resumes"
          `Quick test_state_crash_states;
        Alcotest.test_case "transient solve fault is invisible in the output"
          `Quick
          (transient_fault_transparent ~site:"solve" ~widths:[ 2 ]);
        Alcotest.test_case "transient pool.task fault is invisible too" `Quick
          (transient_fault_transparent ~site:"pool.task" ~widths:[ 1; 4 ]);
        Alcotest.test_case "shard faults aggregate per worker" `Quick
          test_materialize_shard_faults_aggregate;
        QCheck_alcotest.to_alcotest crash_sweep;
      ] );
  ]

let () = Alcotest.run "hydra-chaos" suite
