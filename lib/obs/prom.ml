(* Prometheus text exposition. The format is line-oriented and
   whitespace-sensitive: "# TYPE name kind" then "name[{labels}] value"
   lines; histogram buckets must be cumulative and end with le="+Inf". *)

module Durable_io = Hydra_durable.Durable_io

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let metric_name name = "hydra_" ^ sanitize name

(* %.17g round-trips every float; strip the noise for integral values *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let escape_label s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render snap =
  let b = Buffer.create 4096 in
  let typ name kind = Printf.bprintf b "# TYPE %s %s\n" name kind in
  List.iter
    (fun (k, v) ->
      let n = metric_name k ^ "_total" in
      typ n "counter";
      Printf.bprintf b "%s %d\n" n v)
    (Obs.snapshot_counters snap);
  List.iter
    (fun (k, v) ->
      let n = metric_name k in
      typ n "gauge";
      Printf.bprintf b "%s %s\n" n (float_str v))
    (Obs.snapshot_gauges snap);
  List.iter
    (fun (k, (count, sum, buckets)) ->
      let n = metric_name k in
      typ n "histogram";
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          if c > 0 && i < Obs.num_buckets - 1 then
            Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" n
              (float_str (Obs.bucket_upper i))
              !cum)
        buckets;
      Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" n count;
      Printf.bprintf b "%s_sum %s\n" n (float_str sum);
      Printf.bprintf b "%s_count %d\n" n count)
    (Obs.snapshot_hists snap);
  (match Obs.snapshot_spans snap with
  | [] -> ()
  | spans ->
      typ "hydra_span_count_total" "counter";
      List.iter
        (fun (k, (count, _, _, _)) ->
          Printf.bprintf b "hydra_span_count_total{span=\"%s\"} %d\n"
            (escape_label k) count)
        spans;
      typ "hydra_span_seconds_total" "counter";
      List.iter
        (fun (k, (_, seconds, _, _)) ->
          Printf.bprintf b "hydra_span_seconds_total{span=\"%s\"} %s\n"
            (escape_label k) (float_str seconds))
        spans);
  Buffer.contents b

let write ?(fsync = false) path snap =
  Durable_io.write_atomic ~fsync path (fun b ->
      Buffer.add_string b (render snap))
