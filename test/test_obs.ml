(* Tests for the observability core (hydra.obs) and its pipeline
   integration: span nesting and delivery order, log-scaled histogram
   bucket boundaries, per-view counter aggregation, the disabled-mode
   no-op guarantee (as a qcheck property over whole regeneration runs),
   and the timing-reconciliation contract of Pipeline.result. *)

open Hydra_rel
open Hydra_workload
module Obs = Hydra_obs.Obs
module Mclock = Hydra_obs.Mclock
module Json = Hydra_obs.Json
module Flame = Hydra_obs.Flame
module Prom = Hydra_obs.Prom
module Trace_event = Hydra_obs.Trace_event
module Ledger = Hydra_obs.Ledger
module Progress = Hydra_obs.Progress
module Resource = Hydra_obs.Resource
module Pipeline = Hydra_core.Pipeline

(* every test leaves the global registry disabled and zeroed *)
let scrub () =
  Obs.set_enabled false;
  Obs.reset ()

(* ---- monotonic clock ---- *)

let test_mclock () =
  let a = Mclock.now () in
  let b = Mclock.now () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "anchored near zero" true (a >= 0.0 && a < 86400.0)

(* ---- span nesting and delivery order ---- *)

let test_span_nesting () =
  scrub ();
  let seen = ref [] in
  Obs.add_sink
    {
      Obs.sink_span = (fun sp -> seen := sp :: !seen);
      sink_event = ignore;
      sink_close = ignore;
    };
  Obs.set_enabled true;
  let v =
    Obs.with_span "parent" (fun () ->
        Obs.span_attr "k" (Obs.Int 1);
        Obs.with_span "child" (fun () -> 41) + 1)
  in
  Alcotest.(check int) "thunk value" 42 v;
  scrub ();
  match List.rev !seen with
  | [ child; parent ] ->
      Alcotest.(check string) "child first" "child" child.Obs.sp_name;
      Alcotest.(check string) "then parent" "parent" parent.Obs.sp_name;
      Alcotest.(check int) "child's parent id" parent.Obs.sp_id
        child.Obs.sp_parent;
      Alcotest.(check int) "parent is a root" (-1) parent.Obs.sp_parent;
      Alcotest.(check bool) "ids increase" true
        (child.Obs.sp_id > parent.Obs.sp_id);
      Alcotest.(check bool) "child inside parent" true
        (child.Obs.sp_start >= parent.Obs.sp_start
        && child.Obs.sp_end <= parent.Obs.sp_end);
      Alcotest.(check bool) "durations non-negative" true
        (child.Obs.sp_end >= child.Obs.sp_start
        && parent.Obs.sp_end >= parent.Obs.sp_start);
      Alcotest.(check bool) "attr recorded" true
        (List.mem_assoc "k" parent.Obs.sp_attrs)
  | sps -> Alcotest.failf "expected 2 spans, got %d" (List.length sps)

let test_span_closed_on_exception () =
  scrub ();
  Obs.set_enabled true;
  (try Obs.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  let kvs = Obs.flatten (Obs.snapshot ()) in
  scrub ();
  Alcotest.(check (option (float 0.0)))
    "span aggregate recorded despite the raise" (Some 1.0)
    (List.assoc_opt "span.boom.count" kvs)

(* ---- span allocation ---- *)

(* a span is charged with the words allocated inside it, even when no
   collection runs before it closes *)
let test_span_alloc () =
  scrub ();
  Obs.set_enabled true;
  Gc.minor ();
  let keep = ref [] in
  Obs.with_span "allocates" (fun () ->
      for i = 1 to 10_000 do
        keep := i :: !keep
      done);
  Obs.with_span "idle" ignore;
  let alloc = Obs.span_alloc (Obs.snapshot ()) in
  scrub ();
  let minor name = fst (List.assoc name alloc) in
  Alcotest.(check bool) "10,000 cons cells charged" true
    (minor "allocates" >= 30_000.0);
  Alcotest.(check bool) "idle span charged only its bookkeeping" true
    (minor "idle" < 1_000.0);
  Alcotest.(check int) "list kept alive" 10_000 (List.length !keep)

(* ---- histogram buckets ---- *)

let test_histogram_buckets () =
  (* bucket 0: everything at or below 2^-20 (and non-positive values) *)
  Alcotest.(check int) "zero" 0 (Obs.bucket_of 0.0);
  Alcotest.(check int) "negative" 0 (Obs.bucket_of (-3.0));
  Alcotest.(check int) "2^-20 itself" 0 (Obs.bucket_of (ldexp 1.0 (-20)));
  (* bucket i covers (2^(i-21), 2^(i-20)]: upper bounds are inclusive,
     the next representable value above lands one bucket up *)
  for i = 1 to Obs.num_buckets - 2 do
    let upper = Obs.bucket_upper i in
    Alcotest.(check int)
      (Printf.sprintf "upper bound of bucket %d" i)
      i (Obs.bucket_of upper);
    Alcotest.(check int)
      (Printf.sprintf "just above bucket %d" i)
      (i + 1)
      (Obs.bucket_of (upper *. 1.0000001))
  done;
  Alcotest.(check int) "1.0 sits at 2^0" (Obs.bucket_of 1.0)
    (Obs.bucket_of (Obs.bucket_upper (Obs.bucket_of 1.0)));
  Alcotest.(check (float 0.0)) "1.0 is an exact upper bound" 1.0
    (Obs.bucket_upper (Obs.bucket_of 1.0));
  (* overflow collects in the last bucket *)
  Alcotest.(check int) "huge" (Obs.num_buckets - 1) (Obs.bucket_of 1e30);
  Alcotest.(check bool) "last upper is +inf" true
    (Obs.bucket_upper (Obs.num_buckets - 1) = infinity)

let test_histogram_observe () =
  scrub ();
  Obs.set_enabled true;
  let h = Obs.histogram "t.hist" in
  List.iter (Obs.observe h) [ 0.5; 0.5; 2.0 ];
  let kvs = Obs.flatten (Obs.snapshot ()) in
  scrub ();
  Alcotest.(check (option (float 0.0))) "count" (Some 3.0)
    (List.assoc_opt "t.hist.count" kvs);
  Alcotest.(check (option (float 1e-9))) "sum" (Some 3.0)
    (List.assoc_opt "t.hist.sum" kvs)

(* ---- counters: reset keeps handles valid, disabled mode is a no-op ---- *)

let test_counter_reset_and_disabled () =
  scrub ();
  let c = Obs.counter "t.counter" in
  Obs.incr c 5;
  Alcotest.(check int) "disabled incr ignored" 0 (Obs.counter_value c);
  Obs.set_enabled true;
  Obs.incr c 5;
  Alcotest.(check int) "enabled incr lands" 5 (Obs.counter_value c);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.counter_value c);
  Obs.incr c 2;
  Alcotest.(check int) "handle survives reset" 2 (Obs.counter_value c);
  scrub ()

(* ---- events: the ring buffer is always on ---- *)

let test_event_ring_always_on () =
  scrub ();
  Obs.event ~level:Obs.Warn "ring test incident";
  let found =
    List.exists
      (fun (e : Obs.event) -> e.Obs.ev_msg = "ring test incident")
      (Obs.recent_events ())
  in
  scrub ();
  Alcotest.(check bool) "recorded while disabled" true found

(* ---- pipeline integration ---- *)

let attr name = { Schema.aname = name; dom_lo = 0; dom_hi = 20 }

let two_rel_schema =
  Schema.create
    [
      { Schema.rname = "u"; pk = "u_pk"; fks = []; attrs = [ attr "a" ] };
      { Schema.rname = "v"; pk = "v_pk"; fks = []; attrs = [ attr "a" ] };
    ]

let two_rel_ccs =
  let patom r lo hi =
    Predicate.atom (Schema.qualify r "a") (Interval.make lo hi)
  in
  [
    Cc.size_cc "u" 100;
    Cc.make [ "u" ] (patom "u" 2 9) 30;
    Cc.size_cc "v" 120;
    Cc.make [ "v" ] (patom "v" 5 15) 60;
  ]

let test_counter_aggregation_across_views () =
  scrub ();
  Obs.set_enabled true;
  let before = Obs.snapshot () in
  let result = Pipeline.regenerate two_rel_schema two_rel_ccs in
  let delta = Obs.diff before (Obs.snapshot ()) in
  scrub ();
  Alcotest.(check int) "two views" 2 (List.length result.Pipeline.views);
  let global name =
    match List.assoc_opt name delta with Some x -> x | None -> 0.0
  in
  let view_sum name =
    List.fold_left
      (fun acc (v : Pipeline.view_stats) ->
        acc
        +.
        match List.assoc_opt name v.Pipeline.metrics with
        | Some x -> x
        | None -> 0.0)
      0.0 result.Pipeline.views
  in
  List.iter
    (fun name ->
      Alcotest.(check (float 1e-9))
        (name ^ ": per-view deltas sum to the global delta")
        (global name) (view_sum name))
    [ "simplex.iterations"; "simplex.solves"; "bnb.nodes" ];
  Alcotest.(check bool) "some simplex work happened" true
    (global "simplex.iterations" > 0.0);
  (* every view carries its own span timings *)
  List.iter
    (fun (v : Pipeline.view_stats) ->
      Alcotest.(check bool)
        (v.Pipeline.rel ^ " has a view.solve span delta")
        true
        (List.mem_assoc "span.view.solve.seconds" v.Pipeline.metrics))
    result.Pipeline.views

let test_timing_reconciliation () =
  scrub ();
  let result = Pipeline.regenerate two_rel_schema two_rel_ccs in
  let solve_sum =
    List.fold_left
      (fun acc (v : Pipeline.view_stats) -> acc +. v.Pipeline.solve_seconds)
      0.0 result.Pipeline.views
  in
  let named =
    result.Pipeline.preprocess_seconds +. solve_sum
    +. result.Pipeline.assemble_seconds
  in
  Alcotest.(check bool) "phases non-negative" true
    (result.Pipeline.preprocess_seconds >= 0.0
    && result.Pipeline.assemble_seconds >= 0.0
    && solve_sum >= 0.0);
  Alcotest.(check bool) "named phases fit inside the total" true
    (named <= result.Pipeline.total_seconds +. 1e-6);
  Alcotest.(check bool) "only loop bookkeeping in the gap (< 100ms)" true
    (result.Pipeline.total_seconds -. named < 0.1)

(* metrics snapshot JSON and the codec round-trip *)
let test_metrics_json_roundtrip () =
  scrub ();
  Obs.set_enabled true;
  ignore (Pipeline.regenerate two_rel_schema two_rel_ccs);
  let doc = Obs.snapshot_json (Obs.snapshot ()) in
  scrub ();
  let s = Json.to_string_pretty doc in
  match Json.parse s with
  | Error m -> Alcotest.failf "re-parse failed: %s" m
  | Ok doc' -> (
      match Json.member "counters" doc' with
      | Some counters -> (
          match Json.member "simplex.iterations" counters with
          | Some (Json.Int n) ->
              Alcotest.(check bool) "iterations counted" true (n > 0)
          | _ -> Alcotest.fail "counters.simplex.iterations missing")
      | None -> Alcotest.fail "counters object missing")

(* ---- percentile estimation over the log-scaled buckets ---- *)

let test_percentiles () =
  (* empty histogram: every percentile is 0 *)
  let empty = Array.make Obs.num_buckets 0 in
  Alcotest.(check (float 0.0)) "empty p50" 0.0
    (Obs.percentile_of_buckets empty 0.5);
  (* all 100 observations in bucket 20, which covers (0.5, 1.0]:
     linear interpolation inside the bucket gives p50 = 0.75 *)
  let b = Array.make Obs.num_buckets 0 in
  let i10 = Obs.bucket_of 1.0 in
  b.(i10) <- 100;
  Alcotest.(check (float 1e-9)) "p50 mid-bucket" 0.75
    (Obs.percentile_of_buckets b 0.5);
  Alcotest.(check (float 1e-9)) "p95" 0.975 (Obs.percentile_of_buckets b 0.95);
  Alcotest.(check (float 1e-9)) "p99" 0.995 (Obs.percentile_of_buckets b 0.99);
  (* mass split across two buckets: p50 exhausts the first bucket *)
  let b2 = Array.make Obs.num_buckets 0 in
  b2.(i10) <- 50;
  b2.(i10 + 1) <- 50;
  Alcotest.(check (float 1e-9)) "p50 at bucket boundary" 1.0
    (Obs.percentile_of_buckets b2 0.5);
  Alcotest.(check bool) "p95 lands in the second bucket" true
    (Obs.percentile_of_buckets b2 0.95 > 1.0);
  (* percentiles surface through a live snapshot *)
  scrub ();
  Obs.set_enabled true;
  let h = Obs.histogram "t.pct" in
  List.iter (Obs.observe h) [ 0.75; 0.75; 0.75 ];
  let pcts = Obs.percentiles (Obs.snapshot ()) in
  scrub ();
  match List.assoc_opt "t.pct" pcts with
  | None -> Alcotest.fail "t.pct missing from percentiles"
  | Some (p50, p95, p99) ->
      Alcotest.(check bool) "snapshot percentiles inside bucket 20" true
        (p50 > 0.5 && p50 <= 1.0 && p95 >= p50 && p99 >= p95)

(* ---- folded-stack export on a hand-built span tree ---- *)

let mk_span ?(attrs = []) id parent name s e =
  {
    Obs.sp_id = id;
    sp_parent = parent;
    sp_name = name;
    sp_start = s;
    sp_end = e;
    sp_attrs = attrs;
  }

let test_folded_stacks () =
  (* a (10ms) with two b children (2ms each), one of which holds a
     c grandchild (1ms): self times are a=6ms, b=3ms total, c=1ms *)
  let spans =
    [
      mk_span 4 2 "c" 0.0015 0.0025;
      mk_span 2 1 "b" 0.001 0.003;
      mk_span 3 1 "b" 0.004 0.006;
      mk_span 1 (-1) "a" 0.0 0.010;
    ]
  in
  let folded = Flame.folded spans in
  Alcotest.(check (list (pair string int)))
    "aggregated self-time paths"
    [ ("a", 6000); ("a;b", 3000); ("a;b;c", 1000) ]
    folded;
  (* completion order must not matter *)
  Alcotest.(check (list (pair string int)))
    "order-insensitive" folded
    (Flame.folded (List.rev spans));
  (* a span whose parent is missing from the list roots at its own name *)
  Alcotest.(check (list (pair string int)))
    "orphan becomes a root"
    [ ("lost", 1000) ]
    (Flame.folded [ mk_span 7 99 "lost" 0.0 0.001 ]);
  Alcotest.(check string) "rendered lines" "a 6000\na;b 3000\na;b;c 1000\n"
    (Flame.folded_string spans)

let test_flame_collector () =
  scrub ();
  let c = Flame.create () in
  Obs.add_sink (Flame.sink c);
  Obs.set_enabled true;
  ignore (Obs.with_span "outer" (fun () -> Obs.with_span "inner" (fun () -> 7)));
  let folded = Flame.folded (Flame.spans c) in
  scrub ();
  Alcotest.(check (list string))
    "collector paths" [ "outer"; "outer;inner" ]
    (List.map fst folded);
  Alcotest.(check bool) "self times non-negative" true
    (List.for_all (fun (_, v) -> v >= 0) folded)

(* ---- sink level: Debug/Info suppressed at sinks, ring unaffected ---- *)

let test_sink_level_threshold () =
  scrub ();
  let delivered = ref [] in
  Obs.add_sink
    {
      Obs.sink_span = ignore;
      sink_event = (fun e -> delivered := e.Obs.ev_msg :: !delivered);
      sink_close = ignore;
    };
  Obs.set_enabled true;
  Obs.set_sink_level Obs.Warn;
  Obs.event ~level:Obs.Debug "lvl dbg";
  Obs.event ~level:Obs.Info "lvl info";
  Obs.event ~level:Obs.Warn "lvl warn";
  Obs.event ~level:Obs.Error "lvl err";
  let ring_has m =
    List.exists (fun (e : Obs.event) -> e.Obs.ev_msg = m) (Obs.recent_events ())
  in
  let ring_all =
    List.for_all ring_has [ "lvl dbg"; "lvl info"; "lvl warn"; "lvl err" ]
  in
  Obs.set_sink_level Obs.Debug;
  scrub ();
  Alcotest.(check (list string))
    "only warn and above reach sinks" [ "lvl warn"; "lvl err" ]
    (List.rev !delivered);
  Alcotest.(check bool) "the ring keeps everything" true ring_all;
  Alcotest.(check (option string))
    "level names parse" (Some "warn")
    (Option.map Obs.level_name (Obs.level_of_name "warn"));
  Alcotest.(check bool) "unknown level rejected" true
    (Obs.level_of_name "loud" = None)

(* ---- Prometheus text rendering ---- *)

let test_prom_render () =
  scrub ();
  Obs.set_enabled true;
  Obs.incr (Obs.counter "prom.test_counter") 7;
  Obs.set_gauge (Obs.gauge "prom.test-gauge") 2.5;
  let h = Obs.histogram "prom.hist" in
  List.iter (Obs.observe h) [ 0.75; 0.75; 2.0 ];
  ignore (Obs.with_span "prom.span" (fun () -> ()));
  let text = Prom.render (Obs.snapshot ()) in
  scrub ();
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter family" true
    (has "# TYPE hydra_prom_test_counter_total counter"
    && has "hydra_prom_test_counter_total 7");
  Alcotest.(check bool) "gauge name sanitized" true
    (has "hydra_prom_test_gauge 2.5");
  Alcotest.(check bool) "histogram is cumulative with +Inf" true
    (has "hydra_prom_hist_bucket{le=\"+Inf\"} 3"
    && has "hydra_prom_hist_count 3"
    && has "hydra_prom_hist_sum 3.5");
  Alcotest.(check bool) "span families carry a span label" true
    (has "hydra_span_count_total{span=\"prom.span\"} 1"
    && has "hydra_span_seconds_total{span=\"prom.span\"}");
  (* byte-stable: each section (counters, gauges, ...) sorted by name *)
  Alcotest.(check bool) "sorted by name within each kind" true
    (let lines = String.split_on_char '\n' text in
     let names_of kind =
       List.filter_map
         (fun l ->
           match String.split_on_char ' ' l with
           | [ "#"; "TYPE"; name; k ] when k = kind -> Some name
           | _ -> None)
         lines
     in
     let strip_total n =
       if String.ends_with ~suffix:"_total" n then
         String.sub n 0 (String.length n - 6)
       else n
     in
     List.for_all
       (fun kind ->
         (* counters sort by source name (before the _total suffix); the
            span label-families are their own trailing section *)
         let names =
           List.filter
             (fun n -> not (String.starts_with ~prefix:"hydra_span_" n))
             (List.map strip_total (names_of kind))
         in
         names = List.sort compare names)
       [ "counter"; "gauge"; "histogram" ])

(* ---- heartbeat line and HYDRA_OBS progress parsing ---- *)

let test_heartbeat_line () =
  scrub ();
  Obs.set_enabled true;
  Obs.set_gauge (Obs.gauge "pipeline.progress.total_views") 5.0;
  Obs.incr (Obs.counter "pipeline.progress.done_views") 3;
  Obs.incr (Obs.counter "pipeline.views.exact") 2;
  Obs.incr (Obs.counter "pipeline.views.relaxed") 1;
  Obs.incr (Obs.counter "cache.hit") 4;
  let line = Progress.heartbeat_line (Obs.snapshot ()) in
  scrub ();
  Alcotest.(check string) "heartbeat rendering"
    "[hydra] views 3/5 exact 2 relaxed 1 fallback 0 | cache hits 4 | retries 0"
    line

let test_heartbeat_rate_eta () =
  scrub ();
  Obs.set_enabled true;
  Obs.set_gauge (Obs.gauge "pipeline.progress.total_views") 5.0;
  let start = Obs.snapshot () in
  Obs.incr (Obs.counter "pipeline.progress.done_views") 3;
  Obs.incr (Obs.counter "pipeline.views.exact") 3;
  let snap = Obs.snapshot () in
  Alcotest.(check string) "mid-run heartbeat carries rate and eta"
    "[hydra] views 3/5 exact 3 relaxed 0 fallback 0 | cache hits 0 | \
     retries 0 | 0.75 views/s | eta 2.7s"
    (Progress.heartbeat_line ~elapsed_s:4.0 snap);
  Alcotest.(check string) "no elapsed time, no estimate"
    "[hydra] views 3/5 exact 3 relaxed 0 fallback 0 | cache hits 0 | retries 0"
    (Progress.heartbeat_line snap);
  Alcotest.(check string) "no estimate before the first view lands"
    "[hydra] views 0/5 exact 0 relaxed 0 fallback 0 | cache hits 0 | retries 0"
    (Progress.heartbeat_line ~elapsed_s:4.0 start);
  (* a completed run renders identically to pre-rate versions *)
  Obs.incr (Obs.counter "pipeline.progress.done_views") 2;
  Obs.incr (Obs.counter "pipeline.views.exact") 2;
  let final = Obs.snapshot () in
  scrub ();
  Alcotest.(check string) "final heartbeat has no rate tail"
    "[hydra] views 5/5 exact 5 relaxed 0 fallback 0 | cache hits 0 | retries 0"
    (Progress.heartbeat_line ~elapsed_s:9.0 final)

(* HYDRA_OBS tokens and the converter --progress shares with them *)
let test_progress_spec_parsing () =
  let period spec =
    List.filter_map
      (function
        | "progress", Some v -> Some (Progress.period_of_string v) | _ -> None)
      (Obs.spec_tokens spec)
  in
  let res = Alcotest.(result (float 1e-9) string) in
  Alcotest.(check (list res)) "plain token" [ Ok 2.0 ] (period "progress=2");
  Alcotest.(check (list res))
    "fractional, other tokens around" [ Ok 0.25 ]
    (period "level=warn, progress=0.25,,jsonl=x.jsonl");
  Alcotest.(check (list res)) "absent" [] (period "level=debug");
  Alcotest.(check (list res))
    "non-positive rejected"
    [ Error "expected a positive number of seconds, got \"0\"" ]
    (period "progress=0");
  Alcotest.(check (list res))
    "garbage rejected"
    [ Error "expected a positive number of seconds, got \"fast\"" ]
    (period "progress=fast");
  Alcotest.(check (list (pair string (option string))))
    "a value keeps its own '=', blanks drop, bare tokens have none"
    [ ("export", Some "json=-"); ("on", None) ]
    (Obs.spec_tokens " export=json=- ,, on")

(* ---- Chrome trace-event export ---- *)

(* minimal schema check: the properties Perfetto / chrome://tracing
   require of a complete ("X") event *)
let check_trace_doc doc n_spans =
  (match Json.member "displayTimeUnit" doc with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) ->
      Alcotest.(check int) "one event per span" n_spans (List.length evs);
      List.iter
        (fun ev ->
          let str n =
            match Json.member n ev with
            | Some (Json.String s) -> s
            | _ -> Alcotest.failf "event field %s missing or not a string" n
          in
          let num n =
            match Json.member n ev with
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> Alcotest.failf "event field %s missing or not numeric" n
          in
          Alcotest.(check string) "complete-event phase" "X" (str "ph");
          Alcotest.(check bool) "named" true (str "name" <> "");
          Alcotest.(check bool) "timestamps sane" true
            (num "ts" >= 0.0 && num "dur" >= 0.0);
          Alcotest.(check bool) "pid/tid present" true
            (num "pid" >= 1.0 && num "tid" >= 1.0))
        evs;
      evs
  | _ -> Alcotest.fail "traceEvents missing"

let test_trace_event_json () =
  (* two overlapping root trees (must land on distinct lanes) plus an
     orphan whose parent id is absent (roots itself on its own lane) *)
  let spans =
    [
      mk_span 1 (-1) "root_a" 0.000 0.010;
      mk_span 2 1 "leaf" 0.001 0.003 ~attrs:[ ("rel", Obs.Str "r") ];
      mk_span 3 (-1) "root_b" 0.002 0.012;
      mk_span 9 77 "orphan" 0.004 0.005;
    ]
  in
  let s = Trace_event.to_string spans in
  match Json.parse s with
  | Error m -> Alcotest.failf "trace JSON does not parse: %s" m
  | Ok doc ->
      let evs = check_trace_doc doc 4 in
      let tid name =
        let ev =
          List.find
            (fun ev -> Json.member "name" ev = Some (Json.String name))
            evs
        in
        match Json.member "tid" ev with
        | Some (Json.Int i) -> i
        | Some (Json.Float f) -> int_of_float f
        | _ -> Alcotest.failf "tid missing on %s" name
      in
      Alcotest.(check bool) "overlapping roots on distinct lanes" true
        (tid "root_a" <> tid "root_b");
      Alcotest.(check int) "child shares its root's lane" (tid "root_a")
        (tid "leaf");
      Alcotest.(check bool) "overlapping orphan gets its own lane" true
        (tid "orphan" <> tid "root_a" && tid "orphan" <> tid "root_b")

let test_trace_event_live_collector () =
  scrub ();
  let c = Flame.create () in
  Obs.add_sink (Flame.sink c);
  Obs.set_enabled true;
  ignore (Pipeline.regenerate two_rel_schema two_rel_ccs);
  let spans = Flame.spans c in
  scrub ();
  match Json.parse (Trace_event.to_string spans) with
  | Error m -> Alcotest.failf "live trace does not parse: %s" m
  | Ok doc -> ignore (check_trace_doc doc (List.length spans))

(* ---- run ledger ---- *)

let with_tmp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hydra-obs-test-%d" (Unix.getpid ()))
  in
  let rec scrub_dir d =
    if Sys.file_exists d then begin
      Array.iter
        (fun fn ->
          let p = Filename.concat d fn in
          if Sys.is_directory p then scrub_dir p else Sys.remove p)
        (Sys.readdir d);
      Unix.rmdir d
    end
  in
  scrub_dir dir;
  Fun.protect ~finally:(fun () -> scrub_dir dir) (fun () -> f dir)

let mk_run ?(subcommand = "summary") ?(jobs = 1) ?(views = []) () =
  {
    Ledger.r_subcommand = subcommand;
    r_config_digest = Ledger.config_digest ~subcommand [ "specdigest" ];
    r_spec_digest = "specdigest";
    r_jobs = jobs;
    r_exit = 0;
    r_seconds = 0.5;
    r_views = views;
    r_notes = [];
    r_summary = [];
    r_paths = [];
    r_metrics = Obs.snapshot ();
    r_events = [];
    r_spans = [ mk_span 1 (-1) "a" 0.0 0.5; mk_span 2 1 "b" 0.1 0.2 ];
  }

let archive ~dir r = (Ledger.record ~dir r).Ledger.e_id

let test_ledger_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let id1 = archive ~dir (mk_run ()) in
  let id2 = archive ~dir (mk_run ~jobs:4 ()) in
  (* ids are monotonic and wall-time-free: same config -> same digest8 *)
  Alcotest.(check bool) "seq 1 then 2" true
    (String.sub id1 0 11 = "run-000001-" && String.sub id2 0 11 = "run-000002-");
  Alcotest.(check string) "same config, same digest8"
    (String.sub id1 11 8) (String.sub id2 11 8);
  let l = Ledger.runs ~dir in
  Alcotest.(check int) "two entries" 2 (List.length l.Ledger.l_entries);
  Alcotest.(check (list string))
    "ascending ids" [ id1; id2 ]
    (List.map (fun e -> e.Ledger.e_id) l.Ledger.l_entries);
  (* find: by sequence number, by full id, by unique prefix *)
  let ok = function
    | Ok e -> e.Ledger.e_id
    | Error m -> Alcotest.failf "find failed: %s" m
  in
  Alcotest.(check string) "by seq" id1 (ok (Ledger.find ~dir "1"));
  Alcotest.(check string) "by id" id2 (ok (Ledger.find ~dir id2));
  Alcotest.(check string) "by prefix" id2
    (ok (Ledger.find ~dir "run-000002"));
  (match Ledger.find ~dir "run-" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ambiguous prefix must not resolve");
  (match Ledger.find ~dir "99" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown seq must not resolve");
  (* run parameters survive the round trip *)
  let e2 = (List.nth l.Ledger.l_entries 1).Ledger.e_run in
  Alcotest.(check int) "jobs archived" 4 e2.Ledger.r_jobs

let test_ledger_metric_kvs () =
  scrub ();
  Obs.set_enabled true;
  Obs.incr (Obs.counter "kv.counter") 3;
  let h = Obs.histogram "kv.hist" in
  Obs.observe h 0.75;
  with_tmp_dir @@ fun dir ->
  let id = archive ~dir (mk_run ()) in
  scrub ();
  let e =
    match Ledger.find ~dir id with
    | Ok e -> e
    | Error m -> Alcotest.failf "find: %s" m
  in
  let kvs = Ledger.metric_kvs e.Ledger.e_run in
  Alcotest.(check (option (float 0.0)))
    "counter surfaces" (Some 3.0)
    (List.assoc_opt "kv.counter" kvs);
  List.iter
    (fun suffix ->
      Alcotest.(check bool)
        ("histogram ." ^ suffix ^ " surfaces")
        true
        (List.mem_assoc ("kv.hist." ^ suffix) kvs))
    [ "count"; "sum"; "p50"; "p95"; "p99" ];
  Alcotest.(check bool) "sorted by name" true
    (let names = List.map fst kvs in
     names = List.sort compare names)

let test_ledger_corrupt_tolerance () =
  with_tmp_dir @@ fun dir ->
  let id = archive ~dir (mk_run ()) in
  (* a torn record: valid digest trailer syntax, body truncated *)
  let good_path = Filename.concat dir (id ^ ".json") in
  let good = In_channel.with_open_bin good_path In_channel.input_all in
  Out_channel.with_open_bin (Filename.concat dir "run-000007-deadbeef.json")
    (fun oc ->
      Out_channel.output_string oc
        (String.sub good 10 (String.length good - 10)));
  (* not a ledger record at all, but named like one *)
  Out_channel.with_open_bin (Filename.concat dir "run-000008-0badf00d.json")
    (fun oc -> Out_channel.output_string oc "{\"format\": \"something-else\"}");
  let l = Ledger.runs ~dir in
  Alcotest.(check (list string))
    "the intact record still lists" [ id ]
    (List.map (fun e -> e.Ledger.e_id) l.Ledger.l_entries);
  Alcotest.(check (list string))
    "both bad files reported, never raised"
    [ "run-000007-deadbeef.json"; "run-000008-0badf00d.json" ]
    (List.map fst l.Ledger.l_corrupt);
  (* corrupt files occupy their sequence: the next record skips past *)
  let id2 = archive ~dir (mk_run ()) in
  Alcotest.(check string) "seq resumes after the corrupt files"
    "run-000009-" (String.sub id2 0 11);
  (* prune removes the corrupt files alongside aged runs *)
  let removed, corrupt = Ledger.prune ~dir ~before:9 () in
  Alcotest.(check (list string)) "aged run pruned" [ id ] removed;
  Alcotest.(check int) "corrupt files removed" 2 (List.length corrupt);
  let l2 = Ledger.runs ~dir in
  Alcotest.(check (list string))
    "only the fresh run survives" [ id2 ]
    (List.map (fun e -> e.Ledger.e_id) l2.Ledger.l_entries);
  Alcotest.(check int) "no corrupt files left" 0
    (List.length l2.Ledger.l_corrupt)

let test_ledger_prune_keep () =
  with_tmp_dir @@ fun dir ->
  let ids = List.init 4 (fun _ -> archive ~dir (mk_run ())) in
  let removed, _ = Ledger.prune ~dir ~keep:2 () in
  Alcotest.(check (list string))
    "oldest two removed"
    [ List.nth ids 0; List.nth ids 1 ]
    removed;
  Alcotest.(check (list string))
    "newest two kept"
    [ List.nth ids 2; List.nth ids 3 ]
    (List.map
       (fun e -> e.Ledger.e_id)
       (Ledger.runs ~dir).Ledger.l_entries)

(* ---- property: folded stacks are order- and partition-insensitive ---- *)

(* a random span forest as a parallel run would produce it: spans from
   several domains interleaved, some subtrees, some spans whose parents
   are missing from the collected list (e.g. a sink attached mid-run) *)
let span_forest_gen =
  let open QCheck.Gen in
  let* n = int_range 1 24 in
  let* spans =
    flatten_l
      (List.init n (fun i ->
           let id = i + 1 in
           let* parent =
             if i = 0 then return (-1)
             else
               frequency
                 [
                   (2, return (-1));
                   (5, int_range 1 i);
                   (1, return (1000 + id));
                 ]
           in
           let* name = oneofl [ "alpha"; "beta"; "gamma"; "delta" ] in
           let* start_us = int_range 0 10_000 in
           let* dur_us = int_range 0 5_000 in
           let s = float_of_int start_us *. 1e-6 in
           return (mk_span id parent name s (s +. (float_of_int dur_us *. 1e-6)))))
  in
  return spans

(* deterministic shuffle: key each span by a hash of its id *)
let shuffle spans =
  List.map (fun sp -> ((sp.Obs.sp_id * 2654435761) land 0xFFFFFF, sp)) spans
  |> List.sort compare |> List.map snd

let prop_folded_insensitive =
  QCheck.Test.make
    ~name:"folded stacks ignore completion order and domain partition"
    ~count:100 (QCheck.make span_forest_gen) (fun spans ->
      let reference = Flame.folded_string spans in
      (* order-insensitive: reversal and a hash shuffle *)
      reference = Flame.folded_string (List.rev spans)
      && reference = Flame.folded_string (shuffle spans)
      && (* partition-insensitive: split as if collected from two domains
            and concatenated in either order *)
      (let a, b =
         List.partition (fun sp -> sp.Obs.sp_id mod 2 = 0) spans
       in
       reference = Flame.folded_string (a @ b)
       && reference = Flame.folded_string (b @ a))
      &&
      (* orphans root themselves: every path's head is a span whose
         parent is absent from the list *)
      let ids = List.map (fun sp -> sp.Obs.sp_id) spans in
      let root_names =
        List.filter_map
          (fun sp ->
            if List.mem sp.Obs.sp_parent ids then None
            else Some sp.Obs.sp_name)
          spans
      in
      List.for_all
        (fun (path, _) ->
          match String.split_on_char ';' path with
          | head :: _ -> List.mem head root_names
          | [] -> false)
        (Flame.folded spans))

(* ---- resource sampler ---- *)

let test_resource_sampler () =
  scrub ();
  Obs.set_enabled true;
  Resource.sample ();
  let kvs = Obs.flatten (Obs.snapshot ()) in
  scrub ();
  let v name =
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> Alcotest.failf "gauge %s missing" name
  in
  Alcotest.(check bool) "rss is positive on linux" true
    (v "process.rss_bytes" > 0.0);
  Alcotest.(check bool) "minor words counted" true (v "gc.minor_words" > 0.0);
  Alcotest.(check bool) "major words present" true (v "gc.major_words" >= 0.0);
  Alcotest.(check bool) "heap words present" true (v "gc.heap_words" >= 0.0)

(* ---- property: observation never changes what is computed ---- *)

let obs_env_gen =
  let open QCheck.Gen in
  let* total = int_range 10 200 in
  let* nccs = int_range 1 4 in
  let* specs =
    list_size (return nccs)
      (let* lo = int_range 0 17 in
       let* w = int_range 1 (18 - lo) in
       let* card = int_range 0 (2 * total) in
       return (lo, w, card))
  in
  return (total, specs)

let one_rel_schema =
  Schema.create
    [ { Schema.rname = "r"; pk = "r_pk"; fks = []; attrs = [ attr "a" ] } ]

let obs_ccs total specs =
  Cc.size_cc "r" total
  :: List.map
       (fun (lo, w, card) ->
         Cc.make [ "r" ]
           (Predicate.atom (Schema.qualify "r" "a") (Interval.make lo (lo + w)))
           card)
       specs

(* the deterministic face of a result: everything except wall times and
   the metrics payload *)
let fingerprint (r : Pipeline.result) =
  let s = r.Pipeline.summary in
  ( List.map
      (fun (v : Pipeline.view_stats) ->
        (v.Pipeline.rel, v.Pipeline.status, v.Pipeline.num_lp_vars))
      r.Pipeline.views,
    s.Hydra_core.Summary.relations,
    s.Hydra_core.Summary.extra_tuples,
    r.Pipeline.diagnostics )

let prop_observation_is_pure =
  QCheck.Test.make
    ~name:"enabling tracing never changes regeneration output" ~count:40
    (QCheck.make obs_env_gen)
    (fun (total, specs) ->
      let ccs = obs_ccs total specs in
      scrub ();
      let plain = Pipeline.regenerate one_rel_schema ccs in
      Obs.set_enabled true;
      let traced = Pipeline.regenerate one_rel_schema ccs in
      scrub ();
      fingerprint plain = fingerprint traced)

(* The live readers --progress starts: a ticker rendering the heartbeat
   and metrics.prom from snapshots, and the resource sampler. Back-to-back
   runs span several ticker periods, so their reads land mid-run. The
   readers write no counter (the sampler writes only its gauges): every
   run matches the plain one, and the counters are the plain run's times
   the number of runs. *)
let prop_live_readers_are_pure =
  QCheck.Test.make
    ~name:"live progress readers mid-run never change regeneration output"
    ~count:12
    (QCheck.make obs_env_gen)
    (fun (total, specs) ->
      let ccs = obs_ccs total specs in
      let run jobs = fingerprint (Pipeline.regenerate ~jobs one_rel_schema ccs) in
      let counters () = Obs.snapshot_counters (Obs.snapshot ()) in
      let pure jobs =
        with_tmp_dir @@ fun dir ->
        scrub ();
        Obs.set_enabled true;
        let plain = run jobs in
        let once = counters () in
        scrub ();
        Obs.set_enabled true;
        let heartbeat = open_out Filename.null in
        let sampler = Resource.start ~period_s:0.01 () in
        let ticker =
          Progress.start ~heartbeat ~prom_out:(Filename.concat dir "metrics.prom")
            ~period_s:0.01 ()
        in
        let t0 = Mclock.now () in
        let rec watch runs same =
          let same = run jobs = plain && same in
          if Mclock.now () -. t0 < 0.05 then watch (runs + 1) same
          else (runs + 1, same)
        in
        let runs, same = watch 0 true in
        Progress.stop ticker;
        Resource.stop sampler;
        close_out heartbeat;
        let watched = counters () in
        scrub ();
        same && watched = List.map (fun (k, v) -> (k, runs * v)) once
      in
      pure 1 && pure 4)

(* ---- one record, many renderings ---- *)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* finite floats of every magnitude (raw bit patterns cover subnormals
   and the extremes), plus values %.12g used to lose *)
let finite_float_gen =
  QCheck.Gen.(
    oneof
      [
        map Int64.float_of_bits ui64;
        float;
        oneofl [ 0.1 +. 0.2; 123456.78901234567; 1e-300; -0.0; 1.0 /. 3.0 ];
      ])

let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"JSON floats round-trip through text" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") finite_float_gen)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      Json.parse (Json.to_string (Json.Float f)) = Ok (Json.Float f))

(* a registry with counters, gauges, spans (real allocation words) and
   histograms; one histogram always holds a value in every bucket *)
let registry_gen =
  let open QCheck.Gen in
  let name = int_bound 5 in
  let* counters = small_list (pair name (int_bound 1_000_000)) in
  let* gauges = small_list (pair name finite_float_gen) in
  let* obs = small_list (triple name (int_bound 63) (float_bound_inclusive 1.0)) in
  let* spans = small_list (pair name (int_bound 50)) in
  return (counters, gauges, obs, spans)

(* a value inside bucket [b]: (upper/2, upper] scaled by [u], with the
   edges of bucket 0 (non-positive values) and the overflow bucket *)
let value_in_bucket b u =
  if b = 0 then -.u
  else if b = Obs.num_buckets - 1 then ldexp (1.0 +. u) 43
  else Obs.bucket_upper b *. (0.5 +. (0.5 *. Float.max u 1e-9))

let prop_snapshot_codec =
  QCheck.Test.make ~name:"metrics snapshot codec round-trips" ~count:200
    (QCheck.make registry_gen) (fun (counters, gauges, obs, spans) ->
      scrub ();
      Obs.set_enabled true;
      let nm kind i = Printf.sprintf "codec.%s%d" kind i in
      List.iter (fun (i, n) -> Obs.incr (Obs.counter (nm "c" i)) n) counters;
      List.iter
        (fun (i, v) ->
          if Float.is_finite v then Obs.set_gauge (Obs.gauge (nm "g" i)) v)
        gauges;
      for b = 0 to Obs.num_buckets - 1 do
        Obs.observe (Obs.histogram "codec.every_bucket") (value_in_bucket b 1.0)
      done;
      List.iter
        (fun (i, b, u) -> Obs.observe (Obs.histogram (nm "h" i)) (value_in_bucket b u))
        obs;
      List.iter
        (fun (i, n) ->
          Obs.with_span (nm "s" i) (fun () -> ignore (Sys.opaque_identity (List.init n Fun.id))))
        spans;
      let snap = Obs.snapshot () in
      scrub ();
      match Json.parse (Json.to_string (Obs.snapshot_json snap)) with
      | Error m -> QCheck.Test.fail_reportf "reparse: %s" m
      | Ok doc -> Obs.snapshot_of_json doc = Ok snap)

(* the text rendering of a record under a given run id *)
let report ~id r =
  Ledger.render Ledger.Text { (Ledger.live r) with Ledger.e_id = id }

(* a real run's record, its archived copy, and each rendering of both *)
let test_record_renderings () =
  scrub ();
  let c = Flame.create () in
  Obs.add_sink (Flame.sink c);
  Obs.set_enabled true;
  let result = Pipeline.regenerate two_rel_schema two_rel_ccs in
  let r =
    Pipeline.to_ledger ~subcommand:"summary" ~spec_digest:"specdigest" ~jobs:1
      ~exit_code:0 ~spans:(Flame.spans c) result
  in
  scrub ();
  Alcotest.(check bool) "the record holds spans" true (r.Ledger.r_spans <> []);
  with_tmp_dir @@ fun dir ->
  let id = archive ~dir r in
  let back =
    match Ledger.find ~dir id with
    | Ok e -> e
    | Error m -> Alcotest.failf "find: %s" m
  in
  (* every format, the id-bearing text and json included *)
  List.iter
    (fun (name, fmt) ->
      Alcotest.(check string) name
        (Ledger.render fmt { back with Ledger.e_run = r })
        (Ledger.render fmt back))
    Ledger.formats;
  Alcotest.(check bool) "the reloaded record equals the original" true
    (back.Ledger.e_run = r)

(* a record written before spans were archived: [folded], no [spans] *)
let test_ledger_legacy_record () =
  with_tmp_dir @@ fun dir ->
  scrub ();
  Obs.set_enabled true;
  Obs.incr (Obs.counter "legacy.counter") 2;
  let legacy_id = "run-000001-0badcafe" in
  let doc =
    match Ledger.run_json ~id:legacy_id ~seq:1 (mk_run ()) with
    | Json.Obj fields ->
        Json.Obj
          (List.filter (fun (k, _) -> k <> "spans") fields
          @ [ ("folded", Json.String "a;b 10\n") ])
    | _ -> Alcotest.fail "run_json is not an object"
  in
  scrub ();
  Hydra_durable.Durable_io.write_atomic ~digest:true
    (Filename.concat dir (legacy_id ^ ".json"))
    (fun b ->
      Buffer.add_string b (Json.to_string_pretty doc);
      Buffer.add_char b '\n');
  let fresh = archive ~dir (mk_run ()) in
  let listed () =
    let l = Ledger.runs ~dir in
    (List.map (fun e -> e.Ledger.e_id) l.Ledger.l_entries, l.Ledger.l_corrupt)
  in
  Alcotest.(check (pair (list string) (list (pair string string))))
    "lists, not corrupt" ([ legacy_id; fresh ], []) (listed ());
  let old =
    match Ledger.find ~dir "1" with
    | Ok e -> e.Ledger.e_run
    | Error m -> Alcotest.failf "find: %s" m
  in
  Alcotest.(check int) "no spans" 0 (List.length old.Ledger.r_spans);
  Alcotest.(check bool) "shows" true
    (contains (report ~id:legacy_id old) "run run-000001-0badcafe");
  Alcotest.(check (option (float 0.0)))
    "diffs" (Some 2.0)
    (List.assoc_opt "legacy.counter" (Ledger.metric_kvs old));
  Alcotest.(check (pair (list string) (list string)))
    "prune removes nothing" ([], []) (Ledger.prune ~dir ());
  Alcotest.(check (pair (list string) (list (pair string string))))
    "still listed after prune" ([ legacy_id; fresh ], []) (listed ())

(* the per-view solve profile and the run's summary facts: exact
   round-trip when present, empty defaults when absent *)
let profiled_run () =
  let view rel status detail =
    {
      Ledger.v_rel = rel; v_status = status; v_fingerprint = "f" ^ rel;
      v_tier = "solve"; v_seconds = 0.125;
      v_lp_vars = 17; v_lp_constraints = 9; v_attempts = 2; v_detail = detail;
      v_metrics =
        [ ("simplex.degenerate_pivots", 3.0); ("simplex.dual_pivots", 1.0);
          ("span.view.solve.seconds", 0.1 +. 0.2) ];
    }
  in
  {
    (mk_run
       ~views:
         [
           view "S" "exact" [];
           view "R" "relaxed" [ "S.A in [20,60) expected 400 achieved 399" ];
           view "T" "fallback" [ "no size CC (|T| = k) in workload" ];
         ]
       ())
    with
    Ledger.r_notes = [ "dropped unroutable CC |U| = 5: no relation U" ];
    r_summary =
      [ { Ledger.s_rel = "S"; s_rows = 13; s_tuples = 700; s_repair = 2 } ];
    r_paths = [ ("summary", "toy.summary"); ("audit", "audit.json") ];
  }

let test_ledger_profile () =
  with_tmp_dir @@ fun dir ->
  scrub ();
  Obs.set_enabled true;
  Obs.incr (Obs.counter "legacy.counter") 2;
  let r = profiled_run () in
  scrub ();
  let find id =
    match Ledger.find ~dir id with
    | Ok e -> e.Ledger.e_run
    | Error m -> Alcotest.failf "find: %s" m
  in
  Alcotest.(check bool) "every new field round-trips exactly" true
    (find (archive ~dir r) = r);
  let text = report ~id:"x" r in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        ("report shows " ^ needle) true (contains text needle))
    [
      "17 LP vars, 9 constraints, 2 attempt(s)";
      "relaxed: S.A in [20,60) expected 400 achieved 399";
      "fallback: no size CC";
      "profile: simplex.degenerate_pivots 3, simplex.dual_pivots 1, \
       span.view.solve.seconds 0.3";
      "notes:\n    dropped unroutable CC |U| = 5: no relation U";
      "S                    13 / 700 / 2";
    ];
  (* the same record as written before the profile existed *)
  let strip keys = function
    | Json.Obj fields ->
        Json.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fields)
    | j -> j
  in
  let profile = [ "lp_vars"; "lp_constraints"; "attempts"; "detail"; "metrics" ] in
  let doc =
    match
      strip [ "notes"; "summary"; "paths" ]
        (Ledger.run_json ~id:"run-000002-0badcafe" ~seq:2 r)
    with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "views", Json.List vs -> ("views", Json.List (List.map (strip profile) vs))
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "run_json is not an object"
  in
  Hydra_durable.Durable_io.write_atomic ~digest:true
    (Filename.concat dir "run-000002-0badcafe.json")
    (fun b -> Buffer.add_string b (Json.to_string_pretty doc ^ "\n"));
  let l = Ledger.runs ~dir in
  Alcotest.(check (pair int int)) "lists, not corrupt" (2, 0)
    (List.length l.Ledger.l_entries, List.length l.Ledger.l_corrupt);
  let old = find "2" in
  Alcotest.(check (list (pair string int))) "views load with empty profiles"
    [ ("S", 0); ("R", 0); ("T", 0) ]
    (List.map
       (fun v ->
         ( v.Ledger.v_rel,
           v.Ledger.v_lp_vars + v.Ledger.v_lp_constraints + v.Ledger.v_attempts
           + List.length v.Ledger.v_detail + List.length v.Ledger.v_metrics ))
       old.Ledger.r_views);
  Alcotest.(check bool) "no notes, summary or paths" true
    (old.Ledger.r_notes = [] && old.Ledger.r_summary = [] && old.Ledger.r_paths = []);
  let shown = report ~id:"run-000002-0badcafe" old in
  Alcotest.(check bool) "shows" true (contains shown "    R                    relaxed");
  Alcotest.(check bool) "without a profile line" false (contains shown "LP vars");
  Alcotest.(check (option (float 0.0)))
    "diffs" (Some 2.0)
    (List.assoc_opt "legacy.counter" (Ledger.metric_kvs old))

(* a record as builds before the tier wrote it: [cache] and [journal]
   dispositions on each view, a run-level [journal] aggregate, no
   [tier]. It loads as the tiered record and renders each view's tier *)
let test_ledger_pre_tier_record () =
  with_tmp_dir @@ fun dir ->
  scrub ();
  let view rel tier =
    {
      Ledger.v_rel = rel; v_status = "exact"; v_fingerprint = "f" ^ rel;
      v_tier = tier; v_seconds = 0.25; v_lp_vars = 3; v_lp_constraints = 2;
      v_attempts = 1; v_detail = []; v_metrics = [];
    }
  in
  let r =
    {
      (mk_run ~views:[ view "S" "state"; view "T" "cache"; view "R" "solve" ] ())
      with
      Ledger.r_paths = [ ("cache", "cd"); ("state", "sd") ];
    }
  in
  (* (cache, journal) as the two-disposition builds wrote them *)
  let old_keys = function
    | "S" -> ("bypass", "hit")
    | "T" -> ("hit", "miss")
    | _ -> ("miss", "miss")
  in
  let old_view = function
    | Json.Obj fields ->
        let cache, journal = old_keys (Json.str (List.assoc "rel" fields)) in
        Json.Obj
          (List.concat_map
             (function
               | "tier", _ ->
                   [ ("cache", Json.String cache); ("journal", Json.String journal) ]
               | kv -> [ kv ])
             fields)
    | j -> j
  in
  let doc =
    match Ledger.run_json ~id:"run-000001-0badcafe" ~seq:1 r with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "views", Json.List vs -> ("views", Json.List (List.map old_view vs))
               | kv -> kv)
             fields
          @ [ ("journal", Json.Obj [ ("replayed", Json.Int 1); ("solved", Json.Int 2) ]) ])
    | _ -> Alcotest.fail "run_json is not an object"
  in
  Hydra_durable.Durable_io.write_atomic ~digest:true
    (Filename.concat dir "run-000001-0badcafe.json")
    (fun b -> Buffer.add_string b (Json.to_string_pretty doc ^ "\n"));
  let l = Ledger.runs ~dir in
  Alcotest.(check (pair int int)) "lists, not corrupt" (1, 0)
    (List.length l.Ledger.l_entries, List.length l.Ledger.l_corrupt);
  let old =
    match Ledger.find ~dir "1" with
    | Ok e -> e.Ledger.e_run
    | Error m -> Alcotest.failf "find: %s" m
  in
  Alcotest.(check (list string)) "tiers from the dispositions"
    [ "state"; "cache"; "solve" ]
    (List.map (fun v -> v.Ledger.v_tier) old.Ledger.r_views);
  Alcotest.(check bool) "loads as the tiered record" true (old = r);
  let shown = report ~id:"run-000001-0badcafe" old in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report shows " ^ needle) true (contains shown needle))
    [
      "    S                    exact    tier state";
      "    T                    exact    tier cache";
      "    R                    exact    tier solve";
      "  state: 1 view(s) replayed from sd";
      "  solve: 1 view(s)";
    ]

let suite =
  [
    ( "obs-core",
      [
        Alcotest.test_case "monotonic clock" `Quick test_mclock;
        Alcotest.test_case "span nesting and delivery order" `Quick
          test_span_nesting;
        Alcotest.test_case "span closed on exception" `Quick
          test_span_closed_on_exception;
        Alcotest.test_case "span allocation charged where it happens" `Quick
          test_span_alloc;
        Alcotest.test_case "histogram bucket boundaries" `Quick
          test_histogram_buckets;
        Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
        Alcotest.test_case "counter reset + disabled no-op" `Quick
          test_counter_reset_and_disabled;
        Alcotest.test_case "event ring always on" `Quick
          test_event_ring_always_on;
        Alcotest.test_case "histogram percentiles" `Quick test_percentiles;
        Alcotest.test_case "folded stacks on a known tree" `Quick
          test_folded_stacks;
        Alcotest.test_case "flame collector sink" `Quick test_flame_collector;
      ] );
    ( "obs-pipeline",
      [
        Alcotest.test_case "per-view counter aggregation" `Quick
          test_counter_aggregation_across_views;
        Alcotest.test_case "timing reconciliation" `Quick
          test_timing_reconciliation;
        Alcotest.test_case "metrics JSON round-trip" `Quick
          test_metrics_json_roundtrip;
      ] );
    ( "obs-export",
      [
        Alcotest.test_case "sink level threshold" `Quick
          test_sink_level_threshold;
        Alcotest.test_case "prometheus rendering" `Quick test_prom_render;
        Alcotest.test_case "heartbeat line" `Quick test_heartbeat_line;
        Alcotest.test_case "heartbeat rate and eta" `Quick
          test_heartbeat_rate_eta;
        Alcotest.test_case "HYDRA_OBS progress parsing" `Quick
          test_progress_spec_parsing;
        Alcotest.test_case "resource sampler gauges" `Quick
          test_resource_sampler;
        Alcotest.test_case "chrome trace JSON well-formedness" `Quick
          test_trace_event_json;
        Alcotest.test_case "chrome trace from a live run" `Quick
          test_trace_event_live_collector;
      ] );
    ( "obs-ledger",
      [
        Alcotest.test_case "record / list / find round-trip" `Quick
          test_ledger_roundtrip;
        Alcotest.test_case "metric flattening for diff" `Quick
          test_ledger_metric_kvs;
        Alcotest.test_case "corrupt records tolerated" `Quick
          test_ledger_corrupt_tolerance;
        Alcotest.test_case "prune by count" `Quick test_ledger_prune_keep;
        Alcotest.test_case "pre-span records still load" `Quick
          test_ledger_legacy_record;
        Alcotest.test_case "records before the tier load their views' tiers"
          `Quick test_ledger_pre_tier_record;
        Alcotest.test_case "per-view profile round-trips, absent fields load empty"
          `Quick test_ledger_profile;
        Alcotest.test_case "archived renderings equal live ones" `Quick
          test_record_renderings;
        QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
        QCheck_alcotest.to_alcotest prop_snapshot_codec;
      ] );
    ( "obs-properties",
      [
        QCheck_alcotest.to_alcotest prop_folded_insensitive;
        QCheck_alcotest.to_alcotest prop_observation_is_pure;
        QCheck_alcotest.to_alcotest prop_live_readers_are_pure;
      ] );
  ]

let () = Alcotest.run "hydra-obs" suite
