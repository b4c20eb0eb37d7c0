(* One benchmark sample, run in a fresh process by run.py.

     hbench.exe sample --workload job|supply --seed N --trace 0|1 --dir DIR
     hbench.exe noise

   A sample builds its inputs from the seed, drives the public calls of
   the program through every timed region, checks the outputs, and
   prints one JSON line: the checks it ran and, when all of them passed,
   its metrics, every repetition time of its timed regions and the rows
   a data region handles. With --trace 1 the program's Obs registry is
   on and the sample wraps every call it makes in an Obs span; otherwise
   tracing is off. Temporary caches and summaries live under DIR and are
   removed.

   [noise] times a register-only loop and a streaming loop over 13.5 MB,
   the two ends of the host's noise floor. *)

module Tpcds = Hydra_benchmarks.Tpcds
module Job = Hydra_benchmarks.Job
module Pipeline = Hydra_core.Pipeline
module Summary = Hydra_core.Summary
module Tuple_gen = Hydra_core.Tuple_gen
module Validate = Hydra_core.Validate
module Workload = Hydra_workload.Workload
module Cache = Hydra_cache.Cache
module Database = Hydra_engine.Database
module Executor = Hydra_engine.Executor
module Obs = Hydra_obs.Obs
module Flame = Hydra_obs.Flame
module Mclock = Hydra_obs.Mclock
module Simplex = Hydra_lp.Simplex
module Schema = Hydra_rel.Schema
module Table = Hydra_rel.Table
module Trace = Hbench_trace.Trace

(* ---- workloads ---- *)

type spec = {
  schema : Schema.t;
  sizes : sf:int -> (string * int) list;
  client : input:int -> sf:int -> Database.t;
      (** client database of an input (0..7) at a scale factor *)
  inputs : int;  (** client databases a sample summarizes *)
  queries : Workload.t;
  lp_reps : int;  (** cold summary + re-summary pairs per sample *)
  rounds : int;  (** data-region rounds per sample *)
  data_scale : int;  (** CODD factor of the summary the data regions use *)
  supplied : string list;  (** relations of the row_source pass *)
  mat_reps : int;
  supply_reps : int;
  exact_floor : int -> float;
      (** pinned cc_exact_frac of an input's unscaled summary *)
}

(* The seed picks one of eight inputs (see README.md): the CODD factor
   the CCs are scaled by and, on [supply], the client data seed. *)
let input seed = ((seed mod 8) + 8) mod 8

(* 8..15: a narrow range keeps the summary's digit count, and with it
   summary_bytes, nearly constant across seeds *)
let lp_scale seed = 8 + input seed

(* cc_exact_frac numerators of supply's unscaled summary, for client
   data seeds 11..18 *)
let supply_exact = [| 142.; 143.; 142.; 142.; 143.; 142.; 144.; 143. |]

let spec = function
  | "job" ->
      {
        schema = Job.schema;
        sizes = Job.sizes;
        client = (fun ~input:_ ~sf -> Job.generate ~sf ());
        inputs = 1;
        queries = Job.workload ();
        lp_reps = 1;
        rounds = 2;
        data_scale = 1;
        supplied =
          [ "cast_info"; "movie_keyword"; "name"; "char_name"; "movie_companies" ];
        mat_reps = 120;
        supply_reps = 150;
        exact_floor = (fun _ -> 381. /. 388.);
      }
  | "supply" ->
      {
        schema = Tpcds.schema;
        sizes = Tpcds.sizes;
        client = (fun ~input ~sf -> Tpcds.generate ~seed:(11 + input) ~sf ());
        inputs = 8;
        queries = Tpcds.workload_simple ();
        lp_reps = 16;
        rounds = 3;
        data_scale = 5;
        supplied = Tpcds.big_five;
        mat_reps = 8;
        supply_reps = 8;
        exact_floor = (fun input -> supply_exact.(input) /. 162.);
      }
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- sample state ---- *)

let checks : (string * bool) list ref = ref []
let check ?(detail = "") name ok =
  if not ok then Printf.eprintf "hbench: check failed: %s %s\n%!" name detail;
  checks := (name, ok) :: !checks
let metrics : (string * float) list ref = ref []
let metric name v = metrics := (name, v) :: !metrics

(* Every repetition of a timed region, per input, and the rows a
   repetition of a data region handles: run.py pools them over the
   samples of a run into the end-to-end metrics. *)
let times : (string * float list list) list ref = ref []
let rows : (string * int) list ref = ref []

let timed f =
  let t0 = Mclock.now () in
  let v = f () in
  (v, Mclock.now () -. t0)

(* ---- host-speed probe ----

   The host's memory system switches between a fast and a slow phase
   every second or so with its other tenants' load: memory-bound loops
   slow down by 1.4-1.9x, register-only loops not at all (see
   README.md). The probe is a fixed memory-bound loop. Timed around and
   during a region, it gives the region's speed factor: the probe's
   fast-phase time over its mean time around the region. *)

let probe_array = Array.make (4_000_000 / 8) 1

(* A read pass over 4 MB, which slows down in the slow phase by the
   same factor as a pass of row_source over job's data (1.58x against
   1.56x). It allocates nothing, so the program's heap does not change
   its time; a first untimed pass leaves the caches in the same state
   whatever the program did before, and the fastest of three timed
   passes drops interrupts. *)
let probe () =
  let pass () =
    let acc = ref 0 in
    Array.iter (fun v -> acc := !acc + v) probe_array;
    ignore (Sys.opaque_identity !acc)
  in
  pass ();
  List.fold_left Float.min infinity (List.init 3 (fun _ -> snd (timed pass)))

(* the probe's time in the fast phase on a 2-vCPU Xeon at 2.0 GHz *)
let probe_fast_s = 0.00115
let probes = ref []

(* While a region runs, a sampler thread probes every 0.25 s: a region
   of several seconds spans more than one phase. The thread holds the
   runtime lock while it probes, so the region is paused meanwhile and
   the time it took is taken off the region's. *)
let sampling = ref false
let sampled = ref []
let stolen = ref 0.0

let sampler () =
  while true do
    Thread.delay 0.25;
    if !sampling then begin
      let p, t = timed probe in
      sampled := p :: !sampled;
      stolen := !stolen +. t
    end
  done

(* A timed region: compacted heap first, then one span around exactly
   the timed work, with probes right before, during and right after it.
   Returns the region's seconds scaled by its speed factor, and the
   factor. *)
let region name f =
  let p0 = probe () in
  Gc.compact ();
  sampled := [];
  stolen := 0.0;
  sampling := true;
  let v, t = timed (fun () -> Obs.with_span ("region." ^ name) f) in
  sampling := false;
  let ps = p0 :: probe () :: !sampled in
  probes := ps @ !probes;
  let mean = List.fold_left ( +. ) 0.0 ps /. float_of_int (List.length ps) in
  let speed = probe_fast_s /. mean in
  (v, (t -. !stolen) *. speed, speed)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

(* ---- scratch files ----

   Fixed-width names: the cache directory's path is part of what the
   solver allocates, and lp.minor_words must repeat exactly. *)

let scratch_dir = ref "."
let scratch_seq = ref 0

let scratch name =
  incr scratch_seq;
  Filename.concat !scratch_dir
    (Printf.sprintf "%s-%010d-%04d" name (Unix.getpid ()) !scratch_seq)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let slurp path = In_channel.with_open_bin path In_channel.input_all

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else Out_channel.with_open_bin dst (fun oc -> output_string oc (slurp src))

let with_cache f =
  let dir = scratch "cache" in
  let cache = Cache.create ~dir in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f cache)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                  Some (float_of_int kb /. 1024.0))
          | _ -> None)
        (String.split_on_char '\n' status)
  | exception Sys_error _ -> None

(* ---- program-side readings (traced run only) ---- *)

let view_sum key (r : Pipeline.result) =
  sum
    (List.map
       (fun (v : Pipeline.view_stats) ->
         Option.value ~default:0.0 (List.assoc_opt key v.Pipeline.metrics))
       r.Pipeline.views)

let counter_delta before after name =
  let get s = Option.value ~default:0 (List.assoc_opt name (Obs.snapshot_counters s)) in
  float_of_int (get after - get before)

let solve_minor_words s =
  match List.assoc_opt "view.solve" (Obs.span_alloc s) with
  | Some (minor, _) -> minor
  | None -> 0.0

let all_exact what (r : Pipeline.result) =
  check (what ^ " views exact")
    (List.for_all
       (fun (v : Pipeline.view_stats) -> v.Pipeline.status = Pipeline.Exact)
       r.Pipeline.views)

(* ---- the sample ---- *)

let sample name seed =
  let w = spec name in
  let k = lp_scale seed in
  let at ~sf m = List.map (fun (r, n) -> (r, n * m)) (w.sizes ~sf) in
  let scale m ccs = Workload.scale_ccs (float_of_int m) ccs in
  let regenerate ~cache ~sizes ccs =
    Obs.with_span "Pipeline.regenerate" (fun () ->
        Pipeline.regenerate ~sizes ~jobs:1 ~solve_mode:Simplex.Float_first
          ~cache w.schema ccs)
  in
  let extract db =
    Obs.with_span "Workload.extract_ccs" (fun () ->
        Workload.extract_ccs ~jobs:1 db w.queries)
  in
  let summary_text s =
    let path = scratch "summary" in
    Summary.save path s;
    let text = slurp path in
    Sys.remove path;
    text
  in
  (* set-up: client databases, CC extraction, CODD scaling. Input 0 is
     the seed's own; the data regions and the validation use it. *)
  let own = input seed in
  let inputs = Array.init w.inputs (fun j -> (own + j) mod 8) in
  let setup, setup_s, _ =
    region "setup" (fun () ->
        Array.map
          (fun i ->
            let db = Obs.with_span "Client.generate" (fun () -> w.client ~input:i ~sf:100) in
            let ccs, extract_s = timed (fun () -> extract db) in
            (ccs, scale k ccs, extract_s))
          inputs)
  in
  let ccs, _, _ = setup.(0) in
  let extract_s = sum (Array.to_list (Array.map (fun (_, _, t) -> t) setup)) in
  let drift =
    Array.map (fun i -> lazy (scale k (extract (w.client ~input:i ~sf:110)))) inputs
  in
  (* summary regions: cold summary against a fresh cache, full-hit
     replay, then the re-summary of the drifted client's CCs against
     that cache *)
  let traced = Obs.enabled () in
  let snap () = if traced then Some (Obs.snapshot ()) else None in
  let summary_s = Array.make w.inputs [] and resummary_s = Array.make w.inputs [] in
  let replay_s = ref [] in
  let data = ref None and base = ref None in
  let push times j t = times.(j) <- t :: times.(j) in
  let lp_rep ~slot rep =
    with_cache @@ fun cache ->
    let j = (rep - 1) mod w.inputs in
    let _, ccs_k, _ = setup.(j) in
    let before = snap () in
    let cold, t, _ = region "summary" (fun () -> regenerate ~cache ~sizes:(at ~sf:100 k) ccs_k) in
    let after = snap () in
    push summary_s j t;
    all_exact "summary" cold;
    let misses = (Cache.stats cache).Cache.misses in
    let replay, t, _ = region "replay" (fun () -> regenerate ~cache ~sizes:(at ~sf:100 k) ccs_k) in
    replay_s := t :: !replay_s;
    check "replay served from cache" ((Cache.stats cache).Cache.misses = misses);
    (* the summaries the data regions and the validation use: the
       seed's own CCs at the data scale and unscaled, warm-started from
       a copy of the cold summary's cache, so the re-summary sees that
       cache untouched *)
    let rescale_s =
      if rep > 1 then 0.0
      else begin
        let warm = scratch "cache" in
        copy_tree (Cache.dir cache) warm;
        let cache = Cache.create ~dir:warm in
        let d, rescale_s =
          timed (fun () ->
              regenerate ~cache ~sizes:(at ~sf:100 w.data_scale) (scale w.data_scale ccs))
        in
        let b = if w.data_scale = 1 then d else regenerate ~cache ~sizes:(at ~sf:100 1) ccs in
        rm_rf warm;
        all_exact "rescale" d;
        all_exact "unscaled" b;
        data := Some d;
        base := Some b;
        rescale_s
      end
    in
    slot ();
    let drift = Lazy.force drift.(j) in
    let re, t, _ = region "resummary" (fun () -> regenerate ~cache ~sizes:(at ~sf:110 k) drift) in
    push resummary_s j t;
    all_exact "resummary" re;
    let stats = Cache.stats cache in
    slot ();
    (* summaries are saved (and fsynced) only after the timed regions *)
    let cold_text = summary_text cold.Pipeline.summary in
    check "replay identical" (summary_text replay.Pipeline.summary = cold_text);
    if rep = 1 then begin
      metric "summary_bytes" (float_of_int (String.length cold_text));
      if traced then begin
        let path = scratch "summary" in
        let (), save_s = timed (fun () -> Summary.save path cold.Pipeline.summary) in
        let loaded, load_s = timed (fun () -> Summary.load path w.schema) in
        Sys.remove path;
        check "summary load round-trip" (summary_text loaded = cold_text);
        metric "summary.save_s" save_s;
        metric "summary.load_s" load_s;
        metric "cache.rescale_s" rescale_s;
        metric "summary.rows" (float_of_int (Summary.summary_rows cold.Pipeline.summary));
        metric "preprocess.s" cold.Pipeline.preprocess_seconds;
        metric "assemble.s" cold.Pipeline.assemble_seconds;
        metric "formulate.s" (view_sum "span.view.formulate.seconds" cold);
        metric "formulate.lp_vars" (float_of_int (Pipeline.total_lp_vars cold));
        metric "formulate.lp_constraints"
          (float_of_int
             (List.fold_left
                (fun a (v : Pipeline.view_stats) -> a + v.Pipeline.num_lp_constraints)
                0 cold.Pipeline.views));
        let solve = List.map (fun (v : Pipeline.view_stats) -> v.Pipeline.solve_seconds) cold.Pipeline.views in
        let top = List.fold_left Float.max 0.0 solve in
        metric "lp.solve_s" (sum solve);
        metric "lp.max_view_s" top;
        metric "lp.max_view_share" (if sum solve > 0.0 then top /. sum solve else 0.0);
        List.iter
          (fun (m, key) -> metric m (view_sum key cold))
          [
            ("lp.float_pivots", "simplex.float_pivots");
            ("lp.iterations", "simplex.iterations");
            ("lp.degenerate_pivots", "simplex.degenerate_pivots");
            ("lp.verify_repairs", "simplex.verify_repairs");
            ("lp.bnb_nodes", "bnb.nodes");
            ("lp.bland_fallbacks", "simplex.bland_fallbacks");
          ];
        match (before, after) with
        | Some b, Some a -> metric "lp.minor_words" (solve_minor_words a -. solve_minor_words b)
        | _ -> ()
      end
    end;
    if rep = 1 && traced then begin
      (* summary, replay and re-summary only *)
      metric "cache.hits" (float_of_int stats.Cache.hits);
      metric "cache.misses" (float_of_int stats.Cache.misses);
      metric "cache.stores" (float_of_int stats.Cache.stores);
      (* a warm hint is useful when the view then needed no float pivot *)
      let hinted =
        List.filter
          (fun (v : Pipeline.view_stats) ->
            List.assoc_opt "cache.warm_hit" v.Pipeline.metrics <> None)
          re.Pipeline.views
      in
      let useful =
        List.filter
          (fun (v : Pipeline.view_stats) ->
            List.assoc_opt "simplex.float_pivots" v.Pipeline.metrics = None)
          hinted
      in
      metric "cache.warm_hints" (view_sum "cache.warm_hit" re);
      metric "cache.warm_basis_useful_frac"
        (if hinted = [] then 0.0
         else float_of_int (List.length useful) /. float_of_int (List.length hinted))
    end
  in
  let mat_times = ref [] and supply_times = ref [] and query_times = ref [] in
  let totals = Hashtbl.create 8 and deltas = Hashtbl.create 8 in
  let add tbl key v =
    Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))
  in
  let repeated name reps times f =
    let before = snap () in
    let out = ref None and batch = ref [] in
    let (), total, speed =
      region name (fun () ->
          for _ = 1 to reps do
            out := None;
            let v, t = timed f in
            out := Some v;
            batch := t :: !batch
          done)
    in
    times := List.map (fun t -> t *. speed) !batch @ !times;
    add totals name total;
    (match (before, snap ()) with
    | Some b, Some a ->
        List.iter
          (fun c -> add deltas c (counter_delta b a c))
          [ "tuple_gen.rows_materialized"; "engine.datagen.rows_out";
            "engine.join.rows_out"; "engine.filter.rows_out" ]
    | _ -> ());
    Option.get !out
  in
  let pass (rs : Summary.relation_summary) =
    let next = Tuple_gen.row_source rs in
    let acc = ref 0 in
    for r = 0 to rs.Summary.rs_total - 1 do
      Array.iter (fun v -> acc := !acc + v) (next r)
    done;
    !acc
  in
  let rec op_rows (a : Executor.annotated) =
    List.fold_left (fun acc c -> acc + op_rows c) a.Executor.card a.Executor.children
  in
  let queries = Workload.queries w.queries in
  let per_query = Hashtbl.create 64 in
  let last_round = ref None in
  let data_round () =
    last_round := None;
    let s = (Option.get !data).Pipeline.summary in
    let rels = List.map (Summary.relation s) w.supplied in
    let stored =
      repeated "materialize" w.mat_reps mat_times (fun () ->
          Obs.with_span "Tuple_gen.materialize" (fun () -> Tuple_gen.materialize s))
    in
    (* dynamic full-tuple supply *)
    let sums =
      repeated "supply" w.supply_reps supply_times (fun () ->
          List.map (fun rs -> Obs.with_span "Tuple_gen.row_source" (fun () -> pass rs)) rels)
    in
    (* every workload query over the dynamic database *)
    let dyn = Tuple_gen.dynamic s in
    let results =
      repeated "query" 1 query_times (fun () ->
          List.map
            (fun (q : Workload.query) ->
              let (rset, ann), t =
                timed (fun () -> Obs.with_span "Executor.exec" (fun () -> Executor.exec dyn q.Workload.plan))
              in
              Hashtbl.add per_query q.Workload.qname t;
              (rset.Executor.width, op_rows ann))
            queries)
    in
    last_round := Some (rels, stored, sums, results)
  in
  (* The data rounds spread evenly over the slots between the summary
     regions, two per repetition, the first right after the first
     replay, so their repetitions spread over the whole sample. *)
  let slots = 2 * w.lp_reps and slots_done = ref 0 and rounds_done = ref 0 in
  let slot () =
    incr slots_done;
    while !rounds_done * slots < !slots_done * w.rounds do
      incr rounds_done;
      data_round ()
    done
  in
  for i = 1 to w.lp_reps do
    lp_rep ~slot i
  done;
  (* stored scans and query cardinalities on the materialized database
     must match what dynamic generation supplied *)
  let rels, stored, sums, results = Option.get !last_round in
  List.iter2
    (fun (rs : Summary.relation_summary) dynamic_sum ->
      let stored_sum =
        match Database.source stored rs.Summary.rs_rel with
        | Database.Stored t ->
            let acc = ref 0 in
            for r = 0 to Table.length t - 1 do
              Array.iter (fun v -> acc := !acc + v) (Table.row t r)
            done;
            !acc
        | Database.Generated _ -> min_int
      in
      check ("supply sum " ^ rs.Summary.rs_rel) (stored_sum = dynamic_sum))
    rels sums;
  List.iter2
    (fun (q : Workload.query) (width, _) ->
      check ("query card " ^ q.Workload.qname)
        (Executor.cardinality stored q.Workload.plan = width))
    queries results;
  let rows_mat = Summary.total_rows (Option.get !data).Pipeline.summary in
  let per_pass = List.fold_left (fun a (rs : Summary.relation_summary) -> a + rs.Summary.rs_total) 0 rels in
  let op_total = List.fold_left (fun a (_, n) -> a + n) 0 results in
  let total name = Hashtbl.find totals name in
  (* volumetric similarity of the unscaled summary; untimed *)
  let base = Option.get !base in
  let v, validate_s =
    timed (fun () -> Validate.check (Tuple_gen.dynamic base.Pipeline.summary) ccs)
  in
  check "cc_exact_frac at or above the pinned value"
    ~detail:(Printf.sprintf "%.4f < %.4f" v.Validate.exact_fraction (w.exact_floor own))
    (v.Validate.exact_fraction >= w.exact_floor own);
  check "no negative errors" (v.Validate.negative_fraction = 0.0);
  (* the metrics *)
  metric "setup_s" setup_s;
  times :=
    [
      ("summary", Array.to_list summary_s);
      ("resummary", Array.to_list resummary_s);
      ("materialize", [ !mat_times ]);
      ("supply", [ !supply_times ]);
      ("query", [ !query_times ]);
    ];
  rows := [ ("materialize", rows_mat); ("supply", per_pass); ("query", op_total) ];
  metric "cc_exact_frac" v.Validate.exact_fraction;
  Option.iter (metric "peak_rss_mb") (peak_rss_mb ());
  metric "workload.extract_s" extract_s;
  metric "workload.ccs" (float_of_int (List.length ccs));
  metric "cache.replay_s" (median !replay_s);
  metric "tuple_gen.materialize_s" (total "materialize");
  metric "tuple_gen.supply_s" (total "supply");
  metric "tuple_gen.rows_supplied" (float_of_int (w.rounds * w.supply_reps * per_pass));
  metric "engine.exec_s" (total "query");
  let qms =
    List.map
      (fun (q : Workload.query) -> 1000.0 *. median (Hashtbl.find_all per_query q.Workload.qname))
      queries
  in
  metric "engine.query_p50_ms" (median qms);
  metric "engine.query_max_ms" (List.fold_left Float.max 0.0 qms);
  metric "validate.s" validate_s;
  metric "host.probe_ms" (1000.0 *. median !probes);
  metric "gc.top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0);
  if traced then
    Hashtbl.iter metric deltas

(* ---- traced-run attribution ---- *)

let layers =
  [
    ( "summary",
      [ "Pipeline.regenerate"; "pipeline.preprocess"; "pipeline.view"; "view.formulate";
        "view.solve"; "view.merge"; "view.refine"; "pipeline.assemble" ] );
    ( "resummary",
      [ "Pipeline.regenerate"; "pipeline.preprocess"; "pipeline.view"; "view.formulate";
        "view.solve"; "view.merge"; "view.refine"; "pipeline.assemble" ] );
    ("materialize", [ "Tuple_gen.materialize"; "tuple_gen.materialize" ]);
    ("supply", [ "Tuple_gen.row_source" ]);
    ("query", [ "Executor.exec"; "exec.scan"; "exec.filter"; "exec.join" ]);
  ]

(* The program's own spans are the lower-case names; the benchmark's
   spans around public calls are capitalised, so the time a public call
   spends outside every program span stays in the residual. *)
let program_layer name = name <> "" && match name.[0] with 'a' .. 'z' -> true | _ -> false

let attribution spans =
  List.iter
    (fun (region, names) ->
      let roots = List.filter (fun s -> s.Obs.sp_name = "region." ^ region) spans in
      let parts = List.map (Trace.attribute ~layer:program_layer spans) roots in
      let total = sum (List.map (fun a -> a.Trace.total) parts) in
      let residual = sum (List.map (fun a -> a.Trace.unattributed) parts) in
      metric (Printf.sprintf "trace.%s.residual_s" region) residual;
      metric
        (Printf.sprintf "trace.%s.attributed_frac" region)
        (if total > 0.0 then 1.0 -. (residual /. total) else 0.0);
      List.iter
        (fun n ->
          let self =
            sum
              (List.map
                 (fun a -> Option.value ~default:0.0 (List.assoc_opt n a.Trace.layers))
                 parts)
          in
          metric (Printf.sprintf "self.%s.%s_s" region n) self)
        names)
    layers

(* ---- noise floor ---- *)

let noise () =
  let register () =
    let x = ref 1 in
    for i = 1 to 400_000_000 do
      x := (!x * 31) + i
    done;
    !x
  in
  let stream () =
    let a = Array.make (13_500_000 / 8) 1 in
    let acc = ref 0 in
    for _ = 1 to 300 do
      for i = 0 to Array.length a - 1 do
        acc := !acc + a.(i)
      done
    done;
    !acc
  in
  let r, t_register = timed register in
  let s, t_stream = timed stream in
  Printf.printf {|{"register_s": %.17g, "stream_s": %.17g, "sink": %d}|} t_register t_stream
    ((r land 1) + s);
  print_newline ()

(* ---- entry point ---- *)

(* One JSON line per span, tagged with the sample's run id. *)
let write_spans path run spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            {|{"run":%S,"id":%d,"parent":%d,"name":%S,"start":%.9f,"end":%.9f}|}
            run s.Obs.sp_id s.Obs.sp_parent s.Obs.sp_name s.Obs.sp_start s.Obs.sp_end;
          output_char oc '\n')
        spans)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let checks = List.rev !checks in
  let ok = List.for_all snd checks in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"checks": [|};
  List.iteri
    (fun i (n, passed) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "[%S, %b]" n passed)
    checks;
  Buffer.add_string buf {|], "metrics": {|};
  (* a sample that failed a check reports no timings *)
  let ok_list l = if ok then List.rev l else [] in
  let fields f l =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ", ";
        f x)
      l
  in
  fields
    (fun (n, v) ->
      if not (Trace.valid_name n) then invalid_arg ("metric name " ^ n);
      Printf.bprintf buf "%S: %s" n (json_float v))
    (ok_list !metrics);
  Buffer.add_string buf {|}, "times": {|};
  fields
    (fun (n, per_input) ->
      Printf.bprintf buf "%S: [" n;
      fields
        (fun ts ->
          Buffer.add_char buf '[';
          fields (fun t -> Buffer.add_string buf (json_float t)) ts;
          Buffer.add_char buf ']')
        per_input;
      Buffer.add_char buf ']')
    (ok_list !times);
  Buffer.add_string buf {|}, "rows": {|};
  fields (fun (n, r) -> Printf.bprintf buf "%S: %d" n r) (ok_list !rows);
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 and mode = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Set_int trace, "0|1 record spans and program metrics");
      ("--dir", Arg.Set_string scratch_dir, "DIR scratch directory");
    ]
    (fun m -> mode := m)
    "hbench.exe sample|noise [options]";
  match !mode with
  | "noise" -> noise ()
  | "sample" ->
      (* the sampler allocates, and lp.minor_words of a traced sample
         must repeat exactly *)
      if !trace = 0 then ignore (Thread.create sampler ());
      let flame = Flame.create () in
      if !trace = 1 then begin
        Obs.set_enabled true;
        Obs.add_sink (Flame.sink flame)
      end;
      sample !workload !seed;
      if !trace = 1 then begin
        Obs.set_enabled false;
        let spans = Flame.spans flame in
        attribution spans;
        let run = Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ()) in
        write_spans (Filename.concat !scratch_dir ("spans-" ^ run ^ ".jsonl")) run spans
      end;
      print_result ()
  | m ->
      prerr_endline ("hbench.exe: unknown mode " ^ m);
      exit 2
