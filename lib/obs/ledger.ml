(* Run ledger. One self-verifying JSON file per run; the directory is
   the database. Listing never raises on a bad record — a torn or
   bit-rotted file becomes an [l_corrupt] entry. *)

module Durable_io = Hydra_durable.Durable_io

let format_tag = "hydra-ledger/1"

type view = {
  v_rel : string;
  v_status : string;
  v_fingerprint : string;
  v_cache : string;
  v_journal : string;
  v_seconds : float;
  v_lp_vars : int;
  v_lp_constraints : int;
  v_attempts : int;
  v_detail : string list;
  v_metrics : (string * float) list;
}

type relation = { s_rel : string; s_rows : int; s_tuples : int; s_repair : int }

type run = {
  r_subcommand : string;
  r_config_digest : string;
  r_spec_digest : string;
  r_jobs : int;
  r_exit : int;
  r_seconds : float;
  r_views : view list;
  r_notes : string list;
  r_summary : relation list;
  r_paths : (string * string) list;
  r_journal : (string * int) list;
  r_metrics : Obs.snapshot;
  r_events : Obs.event list;
  r_spans : Obs.span list;
}

let current ?(spans = []) ?(seconds = 0.0) () =
  {
    r_subcommand = ""; r_config_digest = ""; r_spec_digest = ""; r_jobs = 0;
    r_exit = 0; r_seconds = seconds; r_views = []; r_notes = []; r_summary = [];
    r_paths = []; r_journal = [];
    r_metrics = Obs.snapshot (); r_events = Obs.recent_events ();
    r_spans = spans;
  }

let config_digest ~subcommand parts =
  Digest.to_hex (Digest.string (String.concat "\x00" (subcommand :: parts)))

(* ---- filenames ---- *)

(* run-NNNNNN-dddddddd.json — fixed width keeps lexicographic and
   numeric order aligned *)
let filename ~seq ~digest8 = Printf.sprintf "run-%06d-%s.json" seq digest8

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let parse_filename fn =
  let n = String.length fn in
  if
    n = 24
    && String.sub fn 0 4 = "run-"
    && fn.[10] = '-'
    && String.sub fn 19 5 = ".json"
    && String.for_all is_hex (String.sub fn 11 8)
  then
    match int_of_string_opt (String.sub fn 4 6) with
    | Some seq when seq >= 0 -> Some (seq, String.sub fn 11 8)
    | _ -> None
  else None

let record_filenames dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun fn ->
           match parse_filename fn with
           | Some (seq, _) -> Some (seq, fn)
           | None -> None)
    |> List.sort compare
  else []

let next_seq dir =
  1 + List.fold_left (fun acc (seq, _) -> max acc seq) 0 (record_filenames dir)

(* ---- record codec ---- *)

let run_json ~id ~seq r =
  let str k v = (k, Json.String v) and int k v = (k, Json.Int v) in
  let strs k l = (k, Json.List (List.map (fun s -> Json.String s) l)) in
  let view v =
    Json.Obj
      [
        str "rel" v.v_rel; str "status" v.v_status;
        str "fingerprint" v.v_fingerprint; str "cache" v.v_cache;
        str "journal" v.v_journal; ("seconds", Json.Float v.v_seconds);
        int "lp_vars" v.v_lp_vars; int "lp_constraints" v.v_lp_constraints;
        int "attempts" v.v_attempts; strs "detail" v.v_detail;
        ("metrics", Json.Obj (List.map (fun (k, x) -> (k, Json.Float x)) v.v_metrics));
      ]
  in
  let relation s =
    Json.Obj
      [ str "rel" s.s_rel; int "rows" s.s_rows; int "tuples" s.s_tuples;
        int "repair" s.s_repair ]
  in
  Json.Obj
    [
      str "format" format_tag; str "id" id; int "seq" seq;
      str "subcommand" r.r_subcommand; str "config_digest" r.r_config_digest;
      str "spec_digest" r.r_spec_digest; int "jobs" r.r_jobs;
      int "exit" r.r_exit; ("seconds", Json.Float r.r_seconds);
      ("views", Json.List (List.map view r.r_views));
      strs "notes" r.r_notes;
      ("summary", Json.List (List.map relation r.r_summary));
      ("paths", Json.Obj (List.map (fun (k, v) -> str k v) r.r_paths));
      ("journal", Json.Obj (List.map (fun (k, v) -> int k v) r.r_journal));
      ("metrics", Obs.snapshot_json r.r_metrics);
      ("events", Json.List (List.map Obs.event_json r.r_events));
      ("spans", Json.List (List.map Obs.span_json r.r_spans));
    ]

let run_of_json doc =
  let str k j = Json.str (Json.field k j) and int k j = Json.int (Json.field k j) in
  let num k j = Json.num (Json.field k j) in
  let each decode k j = List.map decode (Json.list (Json.field k j)) in
  let pairs decode k j =
    List.map (fun (k, v) -> (k, decode v)) (Json.obj (Json.field k j))
  in
  (* fields added after the first hydra-ledger/1 records (the spans, the
     per-view profile, the notes, summary facts and paths) load empty
     when absent; records written before spans were archived carry
     folded stacks instead *)
  let opt read empty k j = if Json.member k j = None then empty else read k j in
  let attrs j =
    List.map
      (fun (k, v) ->
        ( k,
          match v with
          | Json.String s -> Obs.Str s
          | Json.Int i -> Obs.Int i
          | Json.Bool b -> Obs.Bool b
          | v -> Obs.Float (Json.num v) ))
      (Json.obj (Json.field "attrs" j))
  in
  let view j =
    {
      v_rel = str "rel" j; v_status = str "status" j;
      v_fingerprint = str "fingerprint" j; v_cache = str "cache" j;
      v_journal = str "journal" j; v_seconds = num "seconds" j;
      v_lp_vars = opt int 0 "lp_vars" j;
      v_lp_constraints = opt int 0 "lp_constraints" j;
      v_attempts = opt int 0 "attempts" j;
      v_detail = opt (each Json.str) [] "detail" j;
      v_metrics = opt (pairs Json.num) [] "metrics" j;
    }
  in
  let relation j =
    { s_rel = str "rel" j; s_rows = int "rows" j; s_tuples = int "tuples" j;
      s_repair = int "repair" j }
  in
  let event j =
    match Obs.level_of_name (str "level" j) with
    | None -> raise (Json.Decode "unknown event level")
    | Some l ->
        { Obs.ev_time = num "time" j; ev_level = l; ev_msg = str "msg" j; ev_attrs = attrs j }
  in
  let span j =
    {
      Obs.sp_id = int "id" j; sp_parent = int "parent" j; sp_name = str "name" j;
      sp_start = num "start" j; sp_end = num "end" j; sp_attrs = attrs j;
    }
  in
  match
    {
      r_subcommand = str "subcommand" doc;
      r_config_digest = str "config_digest" doc;
      r_spec_digest = str "spec_digest" doc;
      r_jobs = int "jobs" doc;
      r_exit = int "exit" doc;
      r_seconds = num "seconds" doc;
      r_views = each view "views" doc;
      r_notes = opt (each Json.str) [] "notes" doc;
      r_summary = opt (each relation) [] "summary" doc;
      r_paths = opt (pairs Json.str) [] "paths" doc;
      r_journal = pairs Json.int "journal" doc;
      r_metrics =
        (match Obs.snapshot_of_json (Json.field "metrics" doc) with
        | Ok snap -> snap
        | Error m -> raise (Json.Decode m));
      r_events = each event "events" doc;
      r_spans = opt (each span) [] "spans" doc;
    }
  with
  | r -> Ok r
  | exception Json.Decode m -> Error m

type entry = { e_id : string; e_seq : int; e_path : string; e_run : run }

let live r = { e_id = "current"; e_seq = 0; e_path = ""; e_run = r }

let document e =
  Json.to_string_pretty (run_json ~id:e.e_id ~seq:e.e_seq e.e_run) ^ "\n"

let record ~dir r =
  Durable_io.mkdir_p dir;
  let seq = next_seq dir in
  let digest8 = String.sub r.r_config_digest 0 (min 8 (String.length r.r_config_digest)) in
  let digest8 = if digest8 = "" then "00000000" else digest8 in
  let e =
    { e_id = Printf.sprintf "run-%06d-%s" seq digest8; e_seq = seq;
      e_path = Filename.concat dir (filename ~seq ~digest8); e_run = r }
  in
  Durable_io.write_atomic ~digest:true e.e_path (fun b ->
      Buffer.add_string b (document e));
  e

(* ---- listing ---- *)

type listing = {
  l_entries : entry list;
  l_corrupt : (string * string) list;
}

let load_entry dir seq fn =
  let path = Filename.concat dir fn in
  match Durable_io.read_verified path with
  | exception Durable_io.Corrupt c -> Error c.Durable_io.dur_reason
  | exception Sys_error e -> Error e
  | body -> (
      match Json.parse body with
      | Error e -> Error ("bad json: " ^ e)
      | Ok doc -> (
          match Json.member "format" doc with
          | Some (Json.String t) when t = format_tag -> (
              let id =
                match Json.member "id" doc with
                | Some (Json.String s) -> s
                | _ -> Filename.remove_extension fn
              in
              match run_of_json doc with
              | Ok r -> Ok { e_id = id; e_seq = seq; e_path = path; e_run = r }
              | Error m -> Error ("bad record: " ^ m))
          | _ -> Error "not a hydra-ledger/1 record"))

let runs ~dir =
  List.fold_left
    (fun acc (seq, fn) ->
      match load_entry dir seq fn with
      | Ok e -> { acc with l_entries = e :: acc.l_entries }
      | Error reason ->
          { acc with l_corrupt = (fn, reason) :: acc.l_corrupt })
    { l_entries = []; l_corrupt = [] }
    (record_filenames dir)
  |> fun l ->
  {
    l_entries = List.sort (fun a b -> compare (a.e_seq, a.e_id) (b.e_seq, b.e_id)) l.l_entries;
    l_corrupt = List.rev l.l_corrupt;
  }

let find ~dir ref_ =
  let l = runs ~dir in
  let by p = List.filter p l.l_entries in
  let candidates =
    match int_of_string_opt ref_ with
    | Some seq -> by (fun e -> e.e_seq = seq)
    | None -> (
        match by (fun e -> e.e_id = ref_) with
        | [ e ] -> [ e ]
        | _ ->
            by (fun e ->
                String.length ref_ > 0
                && String.length e.e_id >= String.length ref_
                && String.sub e.e_id 0 (String.length ref_) = ref_))
  in
  match candidates with
  | [ e ] -> Ok e
  | [] -> Error (Printf.sprintf "no run matches %S" ref_)
  | _ -> Error (Printf.sprintf "run reference %S is ambiguous" ref_)

let prune ~dir ?(before = 0) ?keep () =
  let l = runs ~dir in
  let aged, fresh =
    List.partition (fun e -> e.e_seq < before) l.l_entries
  in
  let over_count =
    match keep with
    | None -> []
    | Some k ->
        let n = List.length fresh in
        if n <= k then []
        else
          (* entries are ascending, so the overflow is the prefix *)
          List.filteri (fun i _ -> i < n - k) fresh
  in
  let victims = aged @ over_count in
  List.iter (fun e -> try Sys.remove e.e_path with Sys_error _ -> ()) victims;
  List.iter
    (fun (fn, _) ->
      try Sys.remove (Filename.concat dir fn) with Sys_error _ -> ())
    l.l_corrupt;
  (List.map (fun e -> e.e_id) victims, List.map fst l.l_corrupt)

(* ---- renderings ---- *)

let rungs r =
  let n status = List.length (List.filter (fun v -> v.v_status = status) r.r_views) in
  (n "exact", n "relaxed", n "fallback")

let metric_kvs r =
  Obs.flatten r.r_metrics
  @ List.concat_map
      (fun (k, (p50, p95, p99)) ->
        [ (k ^ ".p50", p50); (k ^ ".p95", p95); (k ^ ".p99", p99) ])
      (Obs.percentiles r.r_metrics)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type format = Chrome | Folded | Prometheus | Metrics_json

let render fmt r =
  match fmt with
  | Chrome -> Trace_event.to_string r.r_spans ^ "\n"
  | Folded -> Flame.folded_string r.r_spans
  | Prometheus -> Prom.render r.r_metrics
  | Metrics_json -> Json.to_string_pretty (Obs.snapshot_json r.r_metrics) ^ "\n"

let report ?(events = 10) ~id r =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let section title rows f =
    if rows <> [] then begin
      line "  %s:" title;
      List.iter f rows
    end
  in
  let get k l = Option.value ~default:0 (List.assoc_opt k l) in
  let ex, rx, fb = rungs r in
  line "run %s" id;
  line "  subcommand    %s" r.r_subcommand;
  line "  config digest %s" r.r_config_digest;
  line "  spec digest   %s" r.r_spec_digest;
  line "  jobs          %d" r.r_jobs;
  line "  exit          %d" r.r_exit;
  line "  seconds       %.6f" r.r_seconds;
  line "  views         %d exact, %d relaxed, %d fallback" ex rx fb;
  List.iter
    (fun v ->
      let fp = v.v_fingerprint in
      line "    %-20s %-8s cache %-6s journal %-8s lp %s  %.6fs" v.v_rel
        v.v_status v.v_cache v.v_journal
        (if fp = "" then "-" else String.sub fp 0 (min 12 (String.length fp)))
        v.v_seconds;
      (* attempts is 0 only in records written before the profile *)
      if v.v_attempts > 0 then
        line "      %d LP vars, %d constraints, %d attempt(s)" v.v_lp_vars
          v.v_lp_constraints v.v_attempts;
      List.iter (line "      %s: %s" v.v_status) v.v_detail;
      if v.v_metrics <> [] then
        line "      profile: %s"
          (String.concat ", "
             (List.map (fun (k, x) -> Printf.sprintf "%s %g" k x) v.v_metrics)))
    r.r_views;
  section "notes" r.r_notes (line "    %s");
  section "summary (rows / tuples / repair tuples)" r.r_summary (fun s ->
      line "    %-20s %d / %d / %d" s.s_rel s.s_rows s.s_tuples s.s_repair);
  section "paths" r.r_paths (fun (k, p) -> line "    %-20s %s" k p);
  section "metrics" (Obs.flatten r.r_metrics) (fun (k, v) ->
      if Float.is_integer v && Float.abs v < 1e15 then
        line "    %-44s %d" k (int_of_float v)
      else line "    %-44s %.6f" k v);
  section "histogram percentiles (p50 / p95 / p99)"
    (List.filter
       (fun (_, (p50, p95, p99)) -> p50 +. p95 +. p99 > 0.0)
       (Obs.percentiles r.r_metrics))
    (fun (k, (p50, p95, p99)) ->
      line "    %-44s %.6f / %.6f / %.6f" k p50 p95 p99);
  let skip = List.length r.r_events - events in
  section "events"
    (List.filteri (fun i _ -> i >= skip) r.r_events)
    (fun ev -> line "    [%s] %s" (Obs.level_name ev.Obs.ev_level) ev.Obs.ev_msg);
  (* last, the resume story: how the state dir and the solve cache
     served the run *)
  line "resume story:";
  if r.r_journal = [] then line "  journal: off"
  else
    line "  journal: %d view(s) replayed, %d solved fresh"
      (get "replayed" r.r_journal) (get "solved" r.r_journal);
  let counters = Obs.snapshot_counters r.r_metrics in
  if List.exists (fun v -> v.v_cache <> "off") r.r_views then
    line "  cache: %d hit(s), %d miss(es), %d store(s)" (get "cache.hit" counters)
      (get "cache.miss" counters) (get "cache.store" counters)
  else line "  cache: off";
  Buffer.contents b
