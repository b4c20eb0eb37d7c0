(* Telemetry endpoint routes. The handler is a pure function of the
   request plus read-only views of the registry/ledger: it never
   writes a metric, which is what keeps a scraped run byte-identical
   to an unserved one. *)

module Http = Hydra_net.Http
module Server = Hydra_net.Server

type t = Server.t

let prom_content_type = "text/plain; version=0.0.4; charset=utf-8"

let json_doc doc = Http.json (Json.to_string_pretty doc ^ "\n")

let listing_doc obs_dir =
  let l =
    match obs_dir with
    | Some dir -> Ledger.runs ~dir
    | None -> { Ledger.l_entries = []; l_corrupt = [] }
  in
  let str k v = (k, Json.String v) and int k v = (k, Json.Int v) in
  let run (e : Ledger.entry) =
    let r = e.Ledger.e_run in
    let exact, relaxed, fallback = Ledger.rungs r in
    Json.Obj
      [
        str "id" e.Ledger.e_id; int "seq" e.Ledger.e_seq;
        str "subcommand" r.Ledger.r_subcommand; int "jobs" r.Ledger.r_jobs;
        int "exit" r.Ledger.r_exit;
        ( "views",
          Json.Obj [ int "exact" exact; int "relaxed" relaxed; int "fallback" fallback ] );
      ]
  in
  let corrupt (file, reason) = Json.Obj [ str "file" file; str "reason" reason ] in
  Json.Obj
    [
      ("runs", Json.List (List.map run l.Ledger.l_entries));
      ("corrupt", Json.List (List.map corrupt l.Ledger.l_corrupt));
    ]

let progress_doc ~elapsed_s (st : Progress.stats) =
  let views_per_sec, eta_seconds = Progress.rate_eta ~elapsed_s st in
  let opt_float = function
    | Some v -> Json.Float v
    | None -> Json.Null
  in
  Json.Obj
    [
      ("line", Json.String (Progress.render ~elapsed_s st));
      ("done_views", Json.Int st.Progress.hb_done);
      ("total_views", Json.Int st.Progress.hb_total);
      ("exact", Json.Int st.Progress.hb_exact);
      ("relaxed", Json.Int st.Progress.hb_relaxed);
      ("fallback", Json.Int st.Progress.hb_fallback);
      ("cache_hits", Json.Int st.Progress.hb_cache_hits);
      ("retries", Json.Int st.Progress.hb_retries);
      ("views_per_sec", opt_float views_per_sec);
      ("eta_seconds", opt_float eta_seconds);
    ]

let no_ledger = "no run ledger attached (start with --obs-dir)"

(* A run reference resolved to the ledger entry it names. [current] is
   the process's own run (live mode only), anything else an archived
   run. [None] names the run /metrics and /progress describe: the
   current one, else the latest archived. *)
let resolve ~current ~obs_dir ref_ =
  let archived f =
    match obs_dir with None -> Error no_ledger | Some dir -> f dir
  in
  match (ref_, current) with
  | (None | Some "current"), Some run -> Ok (Ledger.live (run ()))
  | Some r, _ -> archived (fun dir -> Ledger.find ~dir r)
  | None, None ->
      archived (fun dir ->
          match List.rev (Ledger.runs ~dir).Ledger.l_entries with
          | e :: _ -> Ok e
          | [] -> Error "no runs archived")

let handler ?obs_dir ?current () =
  let with_run ref_ render =
    match resolve ~current ~obs_dir ref_ with
    | Ok e -> render e e.Ledger.e_run
    | Error msg -> Http.not_found msg
  in
  fun (req : Http.request) ->
    if req.Http.meth <> "GET" then
      Http.text ~status:405 "method not allowed\n"
    else
      let segments =
        String.split_on_char '/' req.Http.path
        |> List.filter (fun s -> s <> "")
      in
      match segments with
      | [ "healthz" ] -> Http.text "ok\n"
      | [ "metrics" ] ->
          with_run None (fun e _ ->
              Http.response ~content_type:prom_content_type
                (Ledger.render Ledger.Prometheus e))
      | [ "progress" ] ->
          with_run None (fun _ run ->
              json_doc
                (progress_doc ~elapsed_s:run.Ledger.r_seconds
                   (Progress.stats_of_snapshot run.Ledger.r_metrics)))
      | [ "runs" ] -> json_doc (listing_doc obs_dir)
      | [ "runs"; r ] ->
          with_run (Some r) (fun e run ->
              let doc = Ledger.run_json ~id:e.Ledger.e_id ~seq:e.Ledger.e_seq run in
              json_doc
                (Json.Obj (Json.obj doc @ [ ("live", Json.Bool (e.Ledger.e_id = "current")) ])))
      | [ "runs"; r; "trace" ] ->
          with_run (Some r) (fun e _ ->
              Http.json (Ledger.render Ledger.Chrome e))
      | _ -> Http.not_found ("no route for " ^ req.Http.path)

let start ?obs_dir ?current ~port () =
  Server.start ~port (handler ?obs_dir ?current ())

let port = Server.port
let stop = Server.stop

let port_of_string v =
  match int_of_string_opt v with
  | Some p when p >= 0 && p <= 65535 -> Ok p
  | _ -> Error (Printf.sprintf "expected a port in 0..65535, got %S" v)
