(* Folded-stack reconstruction. Spans arrive flat (id, parent, name,
   start, end); paths are rebuilt by chasing parent links, so the
   algorithm is insensitive to completion order and to interleaved
   domains — each span carries its own ancestry. *)

type collector = { mutable spans : Obs.span list; m : Mutex.t }

let create () = { spans = []; m = Mutex.create () }

let spans c = Mutex.protect c.m (fun () -> List.rev c.spans)

let folded span_list =
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Obs.sp_id sp) span_list;
  (* self time: duration minus the summed durations of direct children *)
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if Hashtbl.mem by_id sp.Obs.sp_parent then begin
        let d = sp.Obs.sp_end -. sp.Obs.sp_start in
        let t0 =
          match Hashtbl.find_opt child_time sp.Obs.sp_parent with
          | Some t -> t
          | None -> 0.0
        in
        Hashtbl.replace child_time sp.Obs.sp_parent (t0 +. d)
      end)
    span_list;
  let rec path sp acc =
    let acc = sp.Obs.sp_name :: acc in
    match Hashtbl.find_opt by_id sp.Obs.sp_parent with
    | Some parent -> path parent acc
    | None -> acc
  in
  let agg = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let dur = sp.Obs.sp_end -. sp.Obs.sp_start in
      let kids =
        match Hashtbl.find_opt child_time sp.Obs.sp_id with
        | Some t -> t
        | None -> 0.0
      in
      let self_us =
        int_of_float (Float.round (Float.max 0.0 (dur -. kids) *. 1e6))
      in
      let key = String.concat ";" (path sp []) in
      let v0 = match Hashtbl.find_opt agg key with Some v -> v | None -> 0 in
      Hashtbl.replace agg key (v0 + self_us))
    span_list;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let folded_string span_list =
  let b = Buffer.create 256 in
  List.iter
    (fun (path, us) -> Buffer.add_string b (Printf.sprintf "%s %d\n" path us))
    (folded span_list);
  Buffer.contents b

let sink c =
  {
    Obs.sink_span = (fun sp -> Mutex.protect c.m (fun () -> c.spans <- sp :: c.spans));
    sink_event = (fun _ -> ());
    sink_close = (fun () -> ());
  }
