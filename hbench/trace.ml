(* The arithmetic the benchmark's traced run reports over the spans it
   collects: a layer's self time is its span's duration minus the part of
   that interval its child spans cover, and a region's residual is its
   end-to-end time minus the self time of every span under it that
   belongs to a named layer. *)

open Hydra_obs.Obs

let duration s = s.sp_end -. s.sp_start

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let total, open_ =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None)
      (List.sort compare clipped)
  in
  match open_ with None -> total | Some (a, b) -> total +. (b -. a)

(* [s]'s duration minus the union of its [children]'s intervals. *)
let self_time s children =
  duration s
  -. covered ~lo:s.sp_start ~hi:s.sp_end
       (List.map (fun c -> (c.sp_start, c.sp_end)) children)

let residual ~total layer_self_times =
  total -. List.fold_left ( +. ) 0.0 layer_self_times

type attribution = {
  total : float;  (** the region's end-to-end seconds *)
  layers : (string * float) list;
      (** self seconds per span name under the region, summed, sorted *)
  unattributed : float;
      (** {!residual} of the region over the spans [layer] accepts *)
}

(* Attribution of the region spanned by [root]: every span below it is
   charged its self time, and only the names [layer] accepts count as
   explained. *)
let attribute ~layer spans root =
  let kids = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add kids s.sp_parent s) spans;
  let children s = Hashtbl.find_all kids s.sp_id in
  let by_name = Hashtbl.create 16 in
  let rec walk s =
    List.iter
      (fun c ->
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_name c.sp_name) in
        Hashtbl.replace by_name c.sp_name (prev +. self_time c (children c));
        walk c)
      (children s)
  in
  walk root;
  let layers =
    List.sort compare (Hashtbl.fold (fun n t acc -> (n, t) :: acc) by_name [])
  in
  let total = duration root in
  let explained = List.filter_map (fun (n, t) -> if layer n then Some t else None) layers in
  { total; layers; unattributed = residual ~total explained }

let attributed_frac a =
  if a.total <= 0.0 then 0.0 else 1.0 -. (a.unattributed /. a.total)

(* Metric names: a letter or digit, then letters, digits, '_', '.', '-';
   at most 64 characters. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s
