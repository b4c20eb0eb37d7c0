(* Trace Event Format emitter. Reference: the "Trace Event Format"
   document (Chromium); the JSON-array-of-events form with ph:"X"
   complete events is the subset every viewer accepts. *)

(* root ancestor per span, parent links chased with memoization; the
   fuel bound makes a (malformed) parent cycle terminate as a root *)
let root_index span_list =
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Obs.sp_id sp) span_list;
  let roots = Hashtbl.create 64 in
  let n = List.length span_list in
  let rec go fuel sp =
    match Hashtbl.find_opt roots sp.Obs.sp_id with
    | Some r -> r
    | None ->
        let r =
          if fuel <= 0 then sp.Obs.sp_id
          else
            match Hashtbl.find_opt by_id sp.Obs.sp_parent with
            | Some p when p.Obs.sp_id <> sp.Obs.sp_id -> go (fuel - 1) p
            | _ -> sp.Obs.sp_id
        in
        Hashtbl.replace roots sp.Obs.sp_id r;
        r
  in
  List.iter (fun sp -> ignore (go n sp)) span_list;
  roots

(* pack root trees into lanes: first lane whose previous tree ended
   before this one starts, else a fresh lane. Deterministic in the span
   set because candidates are visited in (start, id) order. *)
let lane_index span_list roots =
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Obs.sp_id sp) span_list;
  let tree_span = Hashtbl.create 16 in
  (* root id -> (min start, max end) over the whole tree *)
  List.iter
    (fun sp ->
      let r = Hashtbl.find roots sp.Obs.sp_id in
      let lo, hi =
        match Hashtbl.find_opt tree_span r with
        | Some x -> x
        | None -> (infinity, neg_infinity)
      in
      Hashtbl.replace tree_span r
        (Float.min lo sp.Obs.sp_start, Float.max hi sp.Obs.sp_end))
    span_list;
  let ordered =
    Hashtbl.fold (fun r (lo, hi) acc -> (lo, r, hi) :: acc) tree_span []
    |> List.sort compare
  in
  let lanes = ref [] (* (lane, busy_until), newest assignment wins *) in
  let lane_of = Hashtbl.create 16 in
  let next_lane = ref 0 in
  List.iter
    (fun (lo, r, hi) ->
      let rec pick = function
        | [] ->
            Stdlib.incr next_lane;
            !next_lane
        | (lane, busy_until) :: rest ->
            if busy_until <= lo then lane else pick rest
      in
      let lane = pick (List.sort compare !lanes) in
      lanes := (lane, hi) :: List.remove_assoc lane !lanes;
      Hashtbl.replace lane_of r lane)
    ordered;
  fun sp_id -> Hashtbl.find lane_of (Hashtbl.find roots sp_id)

let to_json span_list =
  let t0 =
    List.fold_left
      (fun acc sp -> Float.min acc sp.Obs.sp_start)
      infinity span_list
  in
  let t0 = if t0 = infinity then 0.0 else t0 in
  let roots = root_index span_list in
  let lane = lane_index span_list roots in
  let us t = (t -. t0) *. 1e6 in
  let events =
    List.sort
      (fun a b ->
        compare (a.Obs.sp_start, a.Obs.sp_id) (b.Obs.sp_start, b.Obs.sp_id))
      span_list
    |> List.map (fun sp ->
           let args =
             ("span_id", Json.Int sp.Obs.sp_id)
             :: ("parent", Json.Int sp.Obs.sp_parent)
             :: List.map
                  (fun (k, v) -> (k, Obs.value_json v))
                  sp.Obs.sp_attrs
           in
           Json.Obj
             [
               ("name", Json.String sp.Obs.sp_name);
               ("cat", Json.String "hydra");
               ("ph", Json.String "X");
               ("ts", Json.Float (us sp.Obs.sp_start));
               ( "dur",
                 Json.Float
                   (Float.max 0.0 (us sp.Obs.sp_end -. us sp.Obs.sp_start)) );
               ("pid", Json.Int 1);
               ("tid", Json.Int (lane sp.Obs.sp_id));
               ("args", Json.Obj args);
             ])
  in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string span_list = Json.to_string (to_json span_list)
