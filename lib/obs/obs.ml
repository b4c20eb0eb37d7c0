(* Observability core. Design constraints, in order:
     1. disabled mode must be indistinguishable from uninstrumented code
        (one flag test per call site, no clock reads, no allocation);
     2. no dependencies beyond the stdlib and the local mclock stub;
     3. metric handles are stable across [reset] so instrumented modules
        can create them once at load time;
     4. every entry point is domain-safe: instrumented code runs inside
        the hydra.par pool, so updates accumulate in per-domain shards
        (plain writes, no locks on the hot path) and are merged
        commutatively at snapshot time. The span stack is domain-local;
        the event ring and sink delivery serialize under small mutexes.

   Synchronization contract: a shard's values are published to other
   domains by whatever synchronizes the parallel region itself (the pool
   joins its batch under a mutex before [map] returns), so snapshots
   taken at quiescent points are exact. A snapshot taken concurrently
   with running work may miss in-flight updates but never tears or
   crashes. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attrs = (string * value) list

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* ---- spans ---- *)

type span = {
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_start : float;
  sp_end : float;
  sp_attrs : attrs;
}

type event = {
  ev_time : float;
  ev_level : level;
  ev_msg : string;
  ev_attrs : attrs;
}

type sink = {
  sink_span : span -> unit;
  sink_event : event -> unit;
  sink_close : unit -> unit;
}

(* sink list mutations happen at setup; delivery serializes under a
   mutex so concurrent domains never interleave inside one sink write *)
let sinks : sink list ref = ref []
let sinks_m = Mutex.create ()

(* events below this level are kept out of the sinks (the ring still
   records them — suppression is a presentation choice, not a loss) *)
let sink_level_v = Atomic.make Debug
let set_sink_level l = Atomic.set sink_level_v l
let sink_level () = Atomic.get sink_level_v

let add_sink s =
  Mutex.lock sinks_m;
  sinks := s :: !sinks;
  Mutex.unlock sinks_m

let deliver f =
  Mutex.lock sinks_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sinks_m)
    (fun () -> List.iter f !sinks)

(* ---- handle registration (global, name -> dense id per kind) ---- *)

type kind_reg = {
  mutable kr_names : string array; (* by id *)
  mutable kr_count : int;
  kr_tbl : (string, int) Hashtbl.t;
}

let reg_m = Mutex.create ()

let new_reg () = { kr_names = [||]; kr_count = 0; kr_tbl = Hashtbl.create 64 }

let reg_counters = new_reg ()
let reg_gauges = new_reg ()
let reg_hists = new_reg ()

let register reg name =
  Mutex.lock reg_m;
  let id =
    match Hashtbl.find_opt reg.kr_tbl name with
    | Some id -> id
    | None ->
        let id = reg.kr_count in
        reg.kr_count <- id + 1;
        Hashtbl.replace reg.kr_tbl name id;
        if id >= Array.length reg.kr_names then begin
          let a = Array.make (max 8 (2 * (id + 1))) "" in
          Array.blit reg.kr_names 0 a 0 (Array.length reg.kr_names);
          reg.kr_names <- a
        end;
        reg.kr_names.(id) <- name;
        id
  in
  Mutex.unlock reg_m;
  id

let registered reg =
  Mutex.lock reg_m;
  let a = Array.sub reg.kr_names 0 reg.kr_count in
  Mutex.unlock reg_m;
  a

type counter = { c_id : int }
type gauge = { g_id : int }
type histogram = { h_id : int }

let num_buckets = 64
let min_exp = -20 (* bucket 1 starts just above 2^-20 *)

let bucket_upper i =
  if i >= num_buckets - 1 then infinity else ldexp 1.0 (min_exp + i)

let bucket_of v =
  if v <= ldexp 1.0 min_exp then 0
  else
    let e = int_of_float (Float.ceil (Float.log2 v)) in
    (* v lies in (2^(e-1), 2^e]; guard against log2 rounding placing an
       exact power of two one bucket high *)
    let e = if ldexp 1.0 (e - 1) >= v then e - 1 else e in
    let i = e - min_exp in
    if i < 1 then 1 else if i > num_buckets - 1 then num_buckets - 1 else i

(* ---- per-domain shards ---- *)

type hcell = {
  mutable hc_count : int;
  mutable hc_sum : float;
  hc_buckets : int array;
}

(* per-span-name aggregate, fed by [with_span]: durations plus the GC
   allocation accrued inside the span (minor + major words, read by
   [alloc_words] at open and close; a span opens and closes on one
   domain). Nested spans double-count allocation exactly like they
   double-count seconds. *)
type scell = {
  mutable sc_count : int;
  mutable sc_seconds : float;
  mutable sc_minor_words : float;
  mutable sc_major_words : float;
}

type open_span = {
  os_id : int;
  os_parent : int;
  os_name : string;
  os_start : float;
  os_minor0 : float;
  os_major0 : float;
  mutable os_attrs : attrs;
}

type shard = {
  mutable sh_counters : int array; (* by counter id *)
  mutable sh_gauges : float array; (* by gauge id *)
  mutable sh_hists : hcell option array; (* by histogram id *)
  sh_spans : (string, scell) Hashtbl.t; (* owner-domain access only *)
  mutable sh_stack : open_span list; (* domain-local span stack *)
}

let new_shard () =
  {
    sh_counters = [||];
    sh_gauges = [||];
    sh_hists = [||];
    sh_spans = Hashtbl.create 32;
    sh_stack = [];
  }

(* every domain that ever touches the registry leaves its shard here, so
   totals survive the domain's death (pool shutdown) *)
let shards : shard list ref = ref []
let shards_m = Mutex.create ()

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = new_shard () in
      Mutex.lock shards_m;
      shards := s :: !shards;
      Mutex.unlock shards_m;
      s)

let my_shard () = Domain.DLS.get shard_key

let all_shards () =
  Mutex.lock shards_m;
  let ss = !shards in
  Mutex.unlock shards_m;
  ss

(* growth replaces the array; only the owner domain writes, so the worst
   a concurrent reader can see is the smaller pre-growth array *)
let ensure_counters s id =
  if id >= Array.length s.sh_counters then begin
    let a = Array.make (max 8 (2 * (id + 1))) 0 in
    Array.blit s.sh_counters 0 a 0 (Array.length s.sh_counters);
    s.sh_counters <- a
  end

let ensure_gauges s id =
  if id >= Array.length s.sh_gauges then begin
    let a = Array.make (max 8 (2 * (id + 1))) 0.0 in
    Array.blit s.sh_gauges 0 a 0 (Array.length s.sh_gauges);
    s.sh_gauges <- a
  end

let ensure_hists s id =
  if id >= Array.length s.sh_hists then begin
    let a = Array.make (max 8 (2 * (id + 1))) None in
    Array.blit s.sh_hists 0 a 0 (Array.length s.sh_hists);
    s.sh_hists <- a
  end;
  match s.sh_hists.(id) with
  | Some cell -> cell
  | None ->
      let cell =
        { hc_count = 0; hc_sum = 0.0; hc_buckets = Array.make num_buckets 0 }
      in
      s.sh_hists.(id) <- Some cell;
      cell

(* ---- metric entry points ---- *)

let counter name = { c_id = register reg_counters name }

let incr c n =
  if Atomic.get enabled_flag then begin
    let s = my_shard () in
    ensure_counters s c.c_id;
    s.sh_counters.(c.c_id) <- s.sh_counters.(c.c_id) + n
  end

let counter_value c =
  List.fold_left
    (fun acc s ->
      if c.c_id < Array.length s.sh_counters then acc + s.sh_counters.(c.c_id)
      else acc)
    0 (all_shards ())

let gauge name = { g_id = register reg_gauges name }

let set_gauge g v =
  if Atomic.get enabled_flag then begin
    let s = my_shard () in
    ensure_gauges s g.g_id;
    s.sh_gauges.(g.g_id) <- v
  end

let gauge_max g v =
  if Atomic.get enabled_flag then begin
    let s = my_shard () in
    ensure_gauges s g.g_id;
    if v > s.sh_gauges.(g.g_id) then s.sh_gauges.(g.g_id) <- v
  end

let histogram name = { h_id = register reg_hists name }

let observe h v =
  if Atomic.get enabled_flag then begin
    let s = my_shard () in
    let cell = ensure_hists s h.h_id in
    cell.hc_count <- cell.hc_count + 1;
    cell.hc_sum <- cell.hc_sum +. v;
    let b = bucket_of v in
    cell.hc_buckets.(b) <- cell.hc_buckets.(b) + 1
  end

let span_cell s name =
  match Hashtbl.find_opt s.sh_spans name with
  | Some c -> c
  | None ->
      let c =
        { sc_count = 0; sc_seconds = 0.0; sc_minor_words = 0.0;
          sc_major_words = 0.0 }
      in
      Hashtbl.replace s.sh_spans name c;
      c

(* ---- events (always-on, mutex-guarded ring) ---- *)

let ring_capacity = 256
let ring : event option array = Array.make ring_capacity None
let ring_next = ref 0
let ring_count = ref 0
let ring_m = Mutex.create ()

let event ?(level = Info) ?(attrs = []) msg =
  let ev =
    { ev_time = Mclock.now (); ev_level = level; ev_msg = msg;
      ev_attrs = attrs }
  in
  Mutex.lock ring_m;
  ring.(!ring_next) <- Some ev;
  ring_next := (!ring_next + 1) mod ring_capacity;
  if !ring_count < ring_capacity then Stdlib.incr ring_count;
  Mutex.unlock ring_m;
  if
    Atomic.get enabled_flag
    && level_rank level >= level_rank (Atomic.get sink_level_v)
  then deliver (fun s -> s.sink_event ev)

let recent_events () =
  Mutex.lock ring_m;
  let n = !ring_count in
  let start = (!ring_next - n + (ring_capacity * 2)) mod ring_capacity in
  let evs =
    List.init n (fun i ->
        match ring.((start + i) mod ring_capacity) with
        | Some ev -> ev
        | None -> assert false)
  in
  Mutex.unlock ring_m;
  evs

(* ---- span execution ---- *)

let next_id = Atomic.make 0

let span_attr k v =
  if Atomic.get enabled_flag then begin
    let sh = my_shard () in
    match sh.sh_stack with
    | [] -> ()
    | s :: _ -> s.os_attrs <- (k, v) :: s.os_attrs
  end

(* The calling domain's allocation so far, live. [Gc.quick_stat] will not
   do: its figures for the calling domain only move when a minor
   collection or major slice folds them in, so a span would be charged
   with words allocated before it opened, and it adds the last sampled
   figures of every other domain. [Gc.minor_words] reads the allocation
   pointer, and [Gc.counters]'s major figure includes the words not yet
   folded in (its minor figure is misscaled in OCaml 5.1, so it is not
   used). *)
let alloc_words () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

let close_span os =
  let t1 = Mclock.now () in
  let sh = my_shard () in
  (* pop down to (and including) our own frame; tolerates an unbalanced
     stack left by an exotic control-flow escape *)
  let rec pop = function
    | [] -> []
    | s :: rest -> if s.os_id = os.os_id then rest else pop rest
  in
  sh.sh_stack <- pop sh.sh_stack;
  let sp =
    { sp_id = os.os_id; sp_parent = os.os_parent; sp_name = os.os_name;
      sp_start = os.os_start; sp_end = t1; sp_attrs = List.rev os.os_attrs }
  in
  let agg = span_cell sh os.os_name in
  agg.sc_count <- agg.sc_count + 1;
  agg.sc_seconds <- agg.sc_seconds +. (sp.sp_end -. sp.sp_start);
  let minor, major = alloc_words () in
  agg.sc_minor_words <-
    agg.sc_minor_words +. Float.max 0.0 (minor -. os.os_minor0);
  agg.sc_major_words <-
    agg.sc_major_words +. Float.max 0.0 (major -. os.os_major0);
  deliver (fun s -> s.sink_span sp)

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let sh = my_shard () in
    let minor0, major0 = alloc_words () in
    let os =
      {
        os_id = 1 + Atomic.fetch_and_add next_id 1;
        os_parent =
          (match sh.sh_stack with [] -> -1 | s :: _ -> s.os_id);
        os_name = name;
        os_start = Mclock.now ();
        os_minor0 = minor0;
        os_major0 = major0;
        os_attrs = List.rev attrs;
      }
    in
    sh.sh_stack <- os :: sh.sh_stack;
    match f () with
    | v ->
        close_span os;
        v
    | exception e ->
        close_span os;
        raise e
  end

(* ---- snapshots ---- *)

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_hists : (string * (int * float * int array)) list;
  snap_spans : (string * (int * float * float * float)) list;
      (* count, seconds, minor words, major words *)
}

let by_name (a, _) (b, _) = compare a b

(* merge a shard set: counters/histograms sum, gauges take the max
   (cross-domain "last write" is meaningless; every current gauge is a
   high-water mark), span aggregates sum *)
let snapshot_of ss =
  let cnames = registered reg_counters in
  let gnames = registered reg_gauges in
  let hnames = registered reg_hists in
  let counters =
    Array.to_list
      (Array.mapi
         (fun id name ->
           ( name,
             List.fold_left
               (fun acc s ->
                 if id < Array.length s.sh_counters then
                   acc + s.sh_counters.(id)
                 else acc)
               0 ss ))
         cnames)
  in
  let gauges =
    Array.to_list
      (Array.mapi
         (fun id name ->
           ( name,
             List.fold_left
               (fun acc s ->
                 if id < Array.length s.sh_gauges then
                   Float.max acc s.sh_gauges.(id)
                 else acc)
               0.0 ss ))
         gnames)
  in
  let hists =
    Array.to_list
      (Array.mapi
         (fun id name ->
           let count = ref 0 and sum = ref 0.0 in
           let buckets = Array.make num_buckets 0 in
           List.iter
             (fun s ->
               if id < Array.length s.sh_hists then
                 match s.sh_hists.(id) with
                 | Some cell ->
                     count := !count + cell.hc_count;
                     sum := !sum +. cell.hc_sum;
                     Array.iteri
                       (fun b n -> buckets.(b) <- buckets.(b) + n)
                       cell.hc_buckets
                 | None -> ())
             ss;
           (name, (!count, !sum, buckets)))
         hnames)
  in
  let span_tbl : (string, int * float * float * float) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun name (cell : scell) ->
          let c0, s0, mn0, mj0 =
            match Hashtbl.find_opt span_tbl name with
            | Some x -> x
            | None -> (0, 0.0, 0.0, 0.0)
          in
          Hashtbl.replace span_tbl name
            ( c0 + cell.sc_count,
              s0 +. cell.sc_seconds,
              mn0 +. cell.sc_minor_words,
              mj0 +. cell.sc_major_words ))
        s.sh_spans)
    ss;
  let spans = Hashtbl.fold (fun k v acc -> (k, v) :: acc) span_tbl [] in
  {
    snap_counters = List.sort by_name counters;
    snap_gauges = List.sort by_name gauges;
    snap_hists = List.sort by_name hists;
    snap_spans = List.sort by_name spans;
  }

let snapshot () = snapshot_of (all_shards ())

let local_snapshot () = snapshot_of [ my_shard () ]

let snapshot_counters snap = snap.snap_counters
let snapshot_gauges snap = snap.snap_gauges
let snapshot_hists snap = snap.snap_hists
let snapshot_spans snap = snap.snap_spans

let flatten snap =
  List.map (fun (k, v) -> (k, float_of_int v)) snap.snap_counters
  @ snap.snap_gauges
  @ List.concat_map
      (fun (k, (count, sum, _)) ->
        [ (k ^ ".count", float_of_int count); (k ^ ".sum", sum) ])
      snap.snap_hists
  @ List.concat_map
      (* allocation words are deliberately NOT flattened: [flatten] feeds
         [diff] (per-view metric attribution) and the cross-jobs
         determinism battery, and allocation — unlike counters — depends
         on shard-growth and GC scheduling, so it varies across domains *)
      (fun (k, (count, seconds, _minor, _major)) ->
        [
          ("span." ^ k ^ ".count", float_of_int count);
          ("span." ^ k ^ ".seconds", seconds);
        ])
      snap.snap_spans
  |> List.sort by_name

let diff before after =
  let b = flatten before in
  List.filter_map
    (fun (k, v) ->
      let v0 = match List.assoc_opt k b with Some x -> x | None -> 0.0 in
      if v = v0 then None else Some (k, v -. v0))
    (flatten after)

(* ---- percentile estimation over log-histogram buckets ---- *)

(* rank-based estimate with linear interpolation inside the covering
   bucket. Bucket 0's lower bound is taken as 0; the overflow bucket
   returns its lower bound (a conservative under-estimate). Purely a
   function of the bucket counts, hence deterministic across jobs. *)
let percentile_of_buckets buckets q =
  let total = Array.fold_left ( + ) 0 buckets in
  if total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = Float.max 1.0 (q *. float_of_int total) in
    let i = ref 0 and cum = ref 0 in
    while
      !i < num_buckets - 1
      && float_of_int (!cum + buckets.(!i)) < target
    do
      cum := !cum + buckets.(!i);
      Stdlib.incr i
    done;
    let lo = if !i = 0 then 0.0 else bucket_upper (!i - 1) in
    if !i = num_buckets - 1 then lo
    else begin
      let inside = float_of_int (max 1 buckets.(!i)) in
      let frac = (target -. float_of_int !cum) /. inside in
      lo +. (frac *. (bucket_upper !i -. lo))
    end
  end

let hist_percentiles (_count, _sum, buckets) =
  ( percentile_of_buckets buckets 0.50,
    percentile_of_buckets buckets 0.95,
    percentile_of_buckets buckets 0.99 )

let percentiles snap =
  List.map (fun (k, h) -> (k, hist_percentiles h)) snap.snap_hists

let span_alloc snap =
  List.map
    (fun (k, (_, _, minor, major)) -> (k, (minor, major)))
    snap.snap_spans

(* a bucket's JSON key: its inclusive upper bound in %g, "+inf" for the
   overflow bucket *)
let bucket_key i =
  if i = num_buckets - 1 then "+inf" else Printf.sprintf "%g" (bucket_upper i)

let snapshot_json snap =
  let each f l = Json.Obj (List.map (fun (k, v) -> (k, f v)) l) in
  let float name v = (name, Json.Float v) in
  let hist ((count, sum, buckets) as h) =
    let p50, p95, p99 = hist_percentiles h in
    let nonempty =
      List.filter (fun i -> buckets.(i) > 0) (List.init num_buckets Fun.id)
    in
    Json.Obj
      [
        ("count", Json.Int count); float "sum" sum; float "p50" p50;
        float "p95" p95; float "p99" p99;
        ( "buckets",
          Json.Obj (List.map (fun i -> (bucket_key i, Json.Int buckets.(i))) nonempty) );
      ]
  in
  let span (count, seconds, minor, major) =
    Json.Obj
      [
        ("count", Json.Int count); float "seconds" seconds;
        float "minor_words" minor; float "major_words" major;
      ]
  in
  Json.Obj
    [
      ("counters", each (fun v -> Json.Int v) snap.snap_counters);
      ("gauges", each (fun v -> Json.Float v) snap.snap_gauges);
      ("histograms", each hist snap.snap_hists);
      ("spans", each span snap.snap_spans);
    ]

(* percentiles are derived, so they are recomputed rather than read;
   bucket keys are looked up among the encoder's own strings, because
   parsing a %g key as a float can land it above its bucket's bound *)
let snapshot_of_json j =
  let index = Hashtbl.create num_buckets in
  for i = 0 to num_buckets - 1 do
    Hashtbl.replace index (bucket_key i) i
  done;
  let hist h =
    let buckets = Array.make num_buckets 0 in
    List.iter
      (fun (key, n) ->
        match Hashtbl.find_opt index key with
        | Some i -> buckets.(i) <- Json.int n
        | None -> raise (Json.Decode ("histogram bucket " ^ key)))
      (Json.obj (Json.field "buckets" h));
    (Json.int (Json.field "count" h), Json.num (Json.field "sum" h), buckets)
  in
  let span s =
    let f name = Json.num (Json.field name s) in
    (Json.int (Json.field "count" s), f "seconds", f "minor_words",
     f "major_words")
  in
  let each decode name =
    List.map (fun (k, v) -> (k, decode v)) (Json.obj (Json.field name j))
  in
  match
    {
      snap_counters = each Json.int "counters";
      snap_gauges = each Json.num "gauges";
      snap_hists = each hist "histograms";
      snap_spans = each span "spans";
    }
  with
  | snap -> Ok snap
  | exception Json.Decode m -> Error ("metrics snapshot: " ^ m)

(* ---- sinks ---- *)

let value_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b

let value_json = function
  | Str s -> Json.String s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let attrs_text attrs =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (value_string v)) attrs)

let pretty_seconds s =
  if s >= 1.0 then Printf.sprintf "%.2fs" s
  else if s >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.0fus" (s *. 1e6)

let text_sink oc =
  {
    sink_span =
      (fun sp ->
        Printf.fprintf oc "[obs] span %-28s %8s%s\n%!" sp.sp_name
          (pretty_seconds (sp.sp_end -. sp.sp_start))
          (attrs_text sp.sp_attrs));
    sink_event =
      (fun ev ->
        Printf.fprintf oc "[obs] %s: %s%s\n%!" (level_name ev.ev_level)
          ev.ev_msg (attrs_text ev.ev_attrs));
    sink_close = (fun () -> ());
  }

let attrs_json attrs =
  Json.Obj (List.map (fun (k, v) -> (k, value_json v)) attrs)

let span_fields sp =
  [
    ("id", Json.Int sp.sp_id);
    ("parent", Json.Int sp.sp_parent);
    ("name", Json.String sp.sp_name);
    ("start", Json.Float sp.sp_start);
    ("end", Json.Float sp.sp_end);
    ("attrs", attrs_json sp.sp_attrs);
  ]

let event_fields ev =
  [
    ("time", Json.Float ev.ev_time);
    ("level", Json.String (level_name ev.ev_level));
    ("msg", Json.String ev.ev_msg);
    ("attrs", attrs_json ev.ev_attrs);
  ]

let span_json sp = Json.Obj (span_fields sp)
let event_json ev = Json.Obj (event_fields ev)

let jsonl_sink path =
  let oc = open_out path in
  let line ty fields =
    output_string oc (Json.to_string (Json.Obj (("type", Json.String ty) :: fields)));
    output_char oc '\n'
  in
  {
    sink_span = (fun sp -> line "span" (span_fields sp));
    sink_event = (fun ev -> line "event" (event_fields ev));
    sink_close = (fun () -> close_out oc);
  }

(* ---- lifecycle ---- *)

let reset () =
  List.iter
    (fun s ->
      Array.fill s.sh_counters 0 (Array.length s.sh_counters) 0;
      Array.fill s.sh_gauges 0 (Array.length s.sh_gauges) 0.0;
      Array.iter
        (function
          | Some cell ->
              cell.hc_count <- 0;
              cell.hc_sum <- 0.0;
              Array.fill cell.hc_buckets 0 num_buckets 0
          | None -> ())
        s.sh_hists;
      Hashtbl.iter
        (fun _ (cell : scell) ->
          cell.sc_count <- 0;
          cell.sc_seconds <- 0.0;
          cell.sc_minor_words <- 0.0;
          cell.sc_major_words <- 0.0)
        s.sh_spans)
    (all_shards ());
  Mutex.lock ring_m;
  Array.fill ring 0 ring_capacity None;
  ring_next := 0;
  ring_count := 0;
  Mutex.unlock ring_m

let finished = ref false

let finish () =
  if not !finished then begin
    finished := true;
    List.iter (fun s -> s.sink_close ()) !sinks;
    sinks := []
  end

(* [HYDRA_OBS]-style specs: comma-separated [name=VALUE] or bare
   tokens; the value runs to the next comma, [=] included *)
let spec_tokens spec =
  List.filter_map
    (fun tok ->
      match String.trim tok with
      | "" -> None
      | tok -> (
          match String.index_opt tok '=' with
          | Some i ->
              Some
                ( String.sub tok 0 i,
                  Some (String.sub tok (i + 1) (String.length tok - i - 1)) )
          | None -> Some (tok, None)))
    (String.split_on_char ',' spec)
