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
}

type run = {
  r_subcommand : string;
  r_config_digest : string;
  r_spec_digest : string;
  r_jobs : int;
  r_exit : int;
  r_seconds : float;
  r_views : view list;
  r_journal : (string * int) list;
  r_metrics : Json.t;
  r_events : Obs.event list;
  r_folded : string;
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

(* ---- record ---- *)

let event_json (ev : Obs.event) =
  Json.Obj
    [
      ("time", Json.Float ev.Obs.ev_time);
      ("level", Json.String (Obs.level_name ev.Obs.ev_level));
      ("msg", Json.String ev.Obs.ev_msg);
      ( "attrs",
        Json.Obj
          (List.map (fun (k, v) -> (k, Obs.value_json v)) ev.Obs.ev_attrs) );
    ]

let view_json v =
  Json.Obj
    [
      ("rel", Json.String v.v_rel);
      ("status", Json.String v.v_status);
      ("fingerprint", Json.String v.v_fingerprint);
      ("cache", Json.String v.v_cache);
      ("journal", Json.String v.v_journal);
      ("seconds", Json.Float v.v_seconds);
    ]

let doc_of_run ~id ~seq r =
  Json.Obj
    [
      ("format", Json.String format_tag);
      ("id", Json.String id);
      ("seq", Json.Int seq);
      ("subcommand", Json.String r.r_subcommand);
      ("config_digest", Json.String r.r_config_digest);
      ("spec_digest", Json.String r.r_spec_digest);
      ("jobs", Json.Int r.r_jobs);
      ("exit", Json.Int r.r_exit);
      ("seconds", Json.Float r.r_seconds);
      ("views", Json.List (List.map view_json r.r_views));
      ( "journal",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.r_journal) );
      ("metrics", r.r_metrics);
      ("events", Json.List (List.map event_json r.r_events));
      ("folded", Json.String r.r_folded);
    ]

let record ~dir r =
  Durable_io.mkdir_p dir;
  let seq = next_seq dir in
  let digest8 = String.sub r.r_config_digest 0 (min 8 (String.length r.r_config_digest)) in
  let digest8 = if digest8 = "" then "00000000" else digest8 in
  let id = Printf.sprintf "run-%06d-%s" seq digest8 in
  let path = Filename.concat dir (filename ~seq ~digest8) in
  Durable_io.write_atomic ~digest:true path (fun b ->
      Buffer.add_string b (Json.to_string_pretty (doc_of_run ~id ~seq r));
      Buffer.add_char b '\n');
  id

(* ---- listing ---- *)

type entry = { e_id : string; e_seq : int; e_path : string; e_doc : Json.t }

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
          | Some (Json.String t) when t = format_tag ->
              let id =
                match Json.member "id" doc with
                | Some (Json.String s) -> s
                | _ -> Filename.remove_extension fn
              in
              Ok { e_id = id; e_seq = seq; e_path = path; e_doc = doc }
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

(* ---- metric flattening for diff ---- *)

let num = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let obj_fields = function Json.Obj fields -> fields | _ -> []

let metric_kvs doc =
  match Json.member "metrics" doc with
  | None -> []
  | Some metrics ->
      let get name = Option.value ~default:Json.Null (Json.member name metrics) in
      let plain j =
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (num v))
          (obj_fields j)
      in
      let hist_fields (k, v) =
        List.filter_map
          (fun field ->
            match Json.member field v with
            | Some j -> Option.map (fun f -> (k ^ "." ^ field, f)) (num j)
            | None -> None)
          [ "count"; "sum"; "p50"; "p95"; "p99" ]
      in
      let span_fields (k, v) =
        List.filter_map
          (fun field ->
            match Json.member field v with
            | Some j -> Option.map (fun f -> ("span." ^ k ^ "." ^ field, f)) (num j)
            | None -> None)
          [ "count"; "seconds" ]
      in
      plain (get "counters") @ plain (get "gauges")
      @ List.concat_map hist_fields (obj_fields (get "histograms"))
      @ List.concat_map span_fields (obj_fields (get "spans"))
      |> List.sort (fun (a, _) (b, _) -> compare a b)
