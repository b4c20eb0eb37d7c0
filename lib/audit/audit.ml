module Obs = Hydra_obs.Obs
module Json = Hydra_obs.Json

type op_kind = Scan | Datagen_scan | Filter | Join | Group_by | Aggregate

let all_kinds = [ Scan; Datagen_scan; Filter; Join; Group_by; Aggregate ]

let op_name = function
  | Scan -> "scan"
  | Datagen_scan -> "datagen_scan"
  | Filter -> "filter"
  | Join -> "join"
  | Group_by -> "group_by"
  | Aggregate -> "aggregate"

type record = {
  r_query : string;
  r_op : op_kind;
  r_rels : string list;
  r_key : string;
  r_expected : int option;
  r_observed : int;
}

let rel_error ~expected ~observed =
  float_of_int (observed - expected) /. float_of_int (max 1 expected)

let record_error r =
  match r.r_expected with
  | None -> None
  | Some e -> Some (rel_error ~expected:e ~observed:r.r_observed)

type expectation = {
  exp_key : string;
  exp_rels : string list;
  exp_card : int option;
  exp_children : expectation list;
}

let no_expectation =
  { exp_key = ""; exp_rels = []; exp_card = None; exp_children = [] }

(* ---- trails ---- *)

type trail = { mutable tr_records : record list; tr_m : Mutex.t }

let create () = { tr_records = []; tr_m = Mutex.create () }

(* registry handles are created once at module load so the disabled-mode
   cost of mirroring is the single flag test inside [Obs.incr] *)
let c_ops = Obs.counter "audit.ops"
let c_annotated = Obs.counter "audit.ops.annotated"
let c_exact = Obs.counter "audit.ops.exact"

let op_hist =
  List.map (fun k -> (k, Obs.histogram ("audit.relerr.op." ^ op_name k)))
    all_kinds

let mirror r =
  if Obs.enabled () then begin
    Obs.incr c_ops 1;
    match record_error r with
    | None -> ()
    | Some err ->
        let abs_err = Float.abs err in
        Obs.incr c_annotated 1;
        if abs_err = 0.0 then Obs.incr c_exact 1;
        Obs.observe (List.assoc r.r_op op_hist) abs_err;
        Obs.observe
          (Obs.histogram ("audit.relerr.rel." ^ String.concat "," r.r_rels))
          abs_err
  end

let record t r =
  mirror r;
  Mutex.lock t.tr_m;
  t.tr_records <- r :: t.tr_records;
  Mutex.unlock t.tr_m

let records t =
  Mutex.lock t.tr_m;
  let rs = List.rev t.tr_records in
  Mutex.unlock t.tr_m;
  rs

(* ---- roll-ups ---- *)

type group_stat = {
  gs_rels : string list;
  gs_ccs : int;
  gs_exact : int;
  gs_max_abs_error : float;
}

(* distinct annotated edges, first occurrence wins, order preserved *)
let dedup_annotated rs =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun r ->
      r.r_expected <> None
      && not
           (Hashtbl.mem seen r.r_key
           || begin
                Hashtbl.replace seen r.r_key ();
                false
              end))
    rs

let group_by_key key rs =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let k = key r in
      if not (Hashtbl.mem tbl k) then begin
        order := k :: !order;
        Hashtbl.replace tbl k []
      end;
      Hashtbl.replace tbl k (r :: Hashtbl.find tbl k))
    rs;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order
  |> List.rev

let stat_of rels rs =
  let exact = ref 0 and max_err = ref 0.0 in
  List.iter
    (fun r ->
      match record_error r with
      | None -> ()
      | Some err ->
          if err = 0.0 then Stdlib.incr exact;
          if Float.abs err > !max_err then max_err := Float.abs err)
    rs;
  {
    gs_rels = rels;
    gs_ccs = List.length rs;
    gs_exact = !exact;
    gs_max_abs_error = !max_err;
  }

let by_relation rs =
  dedup_annotated rs
  |> group_by_key (fun r -> String.concat "," r.r_rels)
  |> List.map (fun (_, group) ->
         stat_of (List.hd group).r_rels group)

let by_operator rs =
  let deduped = dedup_annotated rs in
  List.filter_map
    (fun kind ->
      match List.filter (fun r -> r.r_op = kind) deduped with
      | [] -> None
      | group -> Some (kind, stat_of [] group))
    all_kinds

let summary_stats rs =
  let seen = Hashtbl.create 32 in
  let distinct =
    List.filter
      (fun r ->
        not
          (Hashtbl.mem seen r.r_key
          || begin
               Hashtbl.replace seen r.r_key ();
               false
             end))
      rs
  in
  let annotated = List.filter (fun r -> r.r_expected <> None) distinct in
  let s = stat_of [] annotated in
  (List.length distinct, List.length annotated, s.gs_exact, s.gs_max_abs_error)

(* ---- report ---- *)

let record_json r =
  Json.Obj
    [
      ("query", Json.String r.r_query);
      ("op", Json.String (op_name r.r_op));
      ("rels", Json.List (List.map (fun s -> Json.String s) r.r_rels));
      ("expression", Json.String r.r_key);
      ( "expected",
        match r.r_expected with Some e -> Json.Int e | None -> Json.Null );
      ("observed", Json.Int r.r_observed);
      ( "rel_error",
        match record_error r with Some e -> Json.Float e | None -> Json.Null
      );
    ]

let stat_fields s =
  [
    ("ccs", Json.Int s.gs_ccs);
    ("exact", Json.Int s.gs_exact);
    ("max_abs_rel_error", Json.Float s.gs_max_abs_error);
  ]

let incident_json (ev : Obs.event) =
  let attr name =
    match List.assoc_opt name ev.Obs.ev_attrs with
    | Some (Obs.Str s) -> Json.String s
    | Some (Obs.Int i) -> Json.Int i
    | Some (Obs.Float f) -> Json.Float f
    | Some (Obs.Bool b) -> Json.Bool b
    | None -> Json.Null
  in
  Json.Obj
    [
      ("level", Json.String (Obs.level_name ev.Obs.ev_level));
      ("view", attr "view");
      ("rung", attr "rung");
      ("msg", Json.String ev.Obs.ev_msg);
    ]

let report_json ?reconciles ?(incidents = []) rs =
  let ops, annotated, exact, max_err = summary_stats rs in
  Json.Obj
    ([
       ("ops", Json.Int ops);
       ("annotated", Json.Int annotated);
       ("exact", Json.Int exact);
       ("max_abs_rel_error", Json.Float max_err);
     ]
    @ (match reconciles with
      | Some b -> [ ("reconciles", Json.Bool b) ]
      | None -> [])
    @ [
        ( "by_operator",
          Json.Obj
            (List.map
               (fun (kind, s) -> (op_name kind, Json.Obj (stat_fields s)))
               (by_operator rs)) );
        ( "by_relation",
          Json.List
            (List.map
               (fun s ->
                 Json.Obj
                   (( "rels",
                      Json.List
                        (List.map (fun r -> Json.String r) s.gs_rels) )
                   :: stat_fields s))
               (by_relation rs)) );
        ("records", Json.List (List.map record_json rs));
        ("incidents", Json.List (List.map incident_json incidents));
      ])

let write_report ?reconciles ?incidents path rs =
  Hydra_durable.Durable_io.write_atomic ~fsync:false path (fun b ->
      Buffer.add_string b
        (Json.to_string_pretty (report_json ?reconciles ?incidents rs) ^ "\n"))
