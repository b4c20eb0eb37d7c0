(* Plan execution with per-operator output cardinalities.

   Results are binding sets in struct-of-arrays form: for each relation in
   scope, a parallel array of row indices. This keeps multi-way join
   results compact and makes cardinality counting free.

   Filter, join and group-by run a column at a time: every attribute an
   operator reads is gathered once over the input's rows
   ([Database.gather]), the kernels loop over those int arrays, and the
   output bindings are gathered once through a selection or pair
   vector. Output order is part of the contract: filters keep input
   order, join pairs are left-ascending then right-ascending, and
   group-by keeps the first row of each key, so the row ids that
   survive a group-by depend on the order below it. *)

open Hydra_rel
module Obs = Hydra_obs.Obs
module Mclock = Hydra_obs.Mclock

(* per-operator output cardinalities, aggregated across a run *)
let m_scan_rows = Obs.counter "engine.scan.rows_out"
let m_datagen_rows = Obs.counter "engine.datagen.rows_out"
let m_filter_rows = Obs.counter "engine.filter.rows_out"
let m_join_rows = Obs.counter "engine.join.rows_out"
let m_group_rows = Obs.counter "engine.group_by.rows_out"
let m_agg_rows = Obs.counter "engine.aggregate.rows_in"

type rset = {
  width : int;  (* number of result rows *)
  bindings : (string * int array) list;  (* relation -> row ids *)
}

(* annotated operator tree: the paper's AQP (Sec. 2.1) *)
type annotated = {
  op : string;
  card : int;
  children : annotated list;
}

let empty_rset = { width = 0; bindings = [] }

let binding rset rname =
  match List.assoc_opt rname rset.bindings with
  | Some rows -> rows
  | None -> invalid_arg (Printf.sprintf "Executor: relation %S not in scope" rname)

(* [take rows sel] gathers [rows] through a selection vector *)
let take rows sel = Array.map (fun i -> rows.(i)) sel

(* one attribute's values over the rset's rows, in row order *)
let gather db rset qattr =
  let rname, aname = Schema.split_qualified qattr in
  Database.gather db rname aname (binding rset rname)

(* growable int buffer: the selection and pair vectors of the kernels *)
type buf = { mutable data : int array; mutable len : int }

let buf_create cap = { data = Array.make (max 16 cap) 0; len = 0 }

let buf_push b v =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  Array.unsafe_set b.data b.len v;
  b.len <- b.len + 1

let buf_contents b = Array.sub b.data 0 b.len

(* The DNF predicate compiled once per operator: every attribute is
   gathered into one column, and each conjunct becomes an array of
   (column, lo, hi) atoms. A row passes when some conjunct's atoms all
   hold; TRUE is one empty conjunct, FALSE none. *)
let filter_rset db rset pred =
  let cols = List.map (fun a -> (a, gather db rset a)) (Predicate.attrs pred) in
  let conjuncts =
    Array.of_list
      (List.map
         (fun c ->
           Array.of_list
             (List.map
                (fun (a, iv) -> (List.assoc a cols, iv.Interval.lo, iv.Interval.hi))
                c))
         pred)
  in
  let rec holds atoms i k =
    k = Array.length atoms
    ||
    let col, lo, hi = atoms.(k) in
    let v = col.(i) in
    lo <= v && v < hi && holds atoms i (k + 1)
  in
  let rec passes i c =
    c < Array.length conjuncts && (holds conjuncts.(c) i 0 || passes i (c + 1))
  in
  let sel = buf_create rset.width in
  for i = 0 to rset.width - 1 do
    if passes i 0 then buf_push sel i
  done;
  let sel = buf_contents sel in
  {
    width = Array.length sel;
    bindings = List.map (fun (r, rows) -> (r, take rows sel)) rset.bindings;
  }

(* Int-keyed build table, open addressing with linear probing over a
   power-of-two slot count. A slot holds a key and the smallest build
   position with that key; [next] chains the later positions with the
   same key in ascending order, -1 ending a chain. *)
type build = {
  keys : int array;
  heads : int array;  (* -1: empty slot *)
  next : int array;
  shift : int;
}

(* Fibonacci hashing: the top bits of the product pick the slot *)
let slot t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

let rec find_slot t k s =
  if t.heads.(s) < 0 || t.keys.(s) = k then s
  else find_slot t k ((s + 1) land (Array.length t.keys - 1))

let build_table pk =
  let n = Array.length pk in
  let bits = ref 4 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  let t =
    {
      keys = Array.make (1 lsl !bits) 0;
      heads = Array.make (1 lsl !bits) (-1);
      next = Array.make n (-1);
      shift = Sys.int_size - !bits;
    }
  in
  (* descending insertion leaves each chain ascending *)
  for j = n - 1 downto 0 do
    let k = pk.(j) in
    let s = find_slot t k (slot t k) in
    t.next.(j) <- t.heads.(s);
    t.keys.(s) <- k;
    t.heads.(s) <- j
  done;
  t

(* PK-FK hash join: the probe side (left) carries the fk, the build side
   (right) is the pk relation's current binding set. Build keys repeat
   when the pk relation was already joined, so one fk can match several
   build positions. Output pairs are left-ascending, then
   right-ascending. *)
let join_rset db left right spec =
  let pk_name = (Schema.find (Database.schema db) spec.Plan.pk_rel).Schema.pk in
  let table = build_table (gather db right (spec.Plan.pk_rel ^ "." ^ pk_name)) in
  let fk = gather db left spec.Plan.fk_col in
  let li = buf_create left.width and ri = buf_create left.width in
  for i = 0 to left.width - 1 do
    let k = fk.(i) in
    let j = ref table.heads.(find_slot table k (slot table k)) in
    while !j >= 0 do
      buf_push li i;
      buf_push ri !j;
      j := table.next.(!j)
    done
  done;
  let li = buf_contents li and ri = buf_contents ri in
  {
    width = Array.length li;
    bindings =
      List.map (fun (r, rows) -> (r, take rows li)) left.bindings
      @ List.map (fun (r, rows) -> (r, take rows ri)) right.bindings;
  }

(* duplicate elimination: keep the first result row of each distinct value
   combination of the grouping attributes *)
let group_rset db rset attrs =
  let cols = Array.of_list (List.map (gather db rset) attrs) in
  let seen = Hashtbl.create (max 16 rset.width) in
  let sel = buf_create 16 in
  for i = 0 to rset.width - 1 do
    let key = Array.make (Array.length cols) 0 in
    for c = 0 to Array.length cols - 1 do
      key.(c) <- cols.(c).(i)
    done;
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      buf_push sel i
    end
  done;
  let sel = buf_contents sel in
  {
    width = Array.length sel;
    bindings = List.map (fun (r, rows) -> (r, take rows sel)) rset.bindings;
  }

(* operator span: input/output cardinalities, counter update, throughput.
   Disabled tracing takes the [f ()] branch only — the executor's hot
   path pays a single flag test per operator. *)
let op_span name counter ~rows_in f =
  if not (Obs.enabled ()) then f ()
  else
    Obs.with_span name (fun () ->
        let t = Mclock.now () in
        let rset, ann = f () in
        let dt = Float.max (Mclock.now () -. t) 1e-9 in
        Obs.incr counter rset.width;
        Obs.span_attr "rows_in" (Obs.Int rows_in);
        Obs.span_attr "rows_out" (Obs.Int rset.width);
        Obs.span_attr "rows_per_sec"
          (Obs.Float (float_of_int (Stdlib.max rows_in rset.width) /. dt));
        (rset, ann))

let scan_is_generated db rname =
  match Database.source db rname with
  | Database.Generated _ -> true
  | Database.Stored _ -> false

(* ---- volumetric-accuracy accounting (hydra.audit) ----

   An audited execution threads an [Audit.expectation] tree (the
   CC-derived expected cardinality per operator edge, built by
   Workload.audit_expectation) alongside the plan and appends one audit
   record per operator. Recording happens after the operator's span
   closes and never touches the rset, so audited execution returns
   bit-identical results ("observation is pure"); unaudited [exec]
   passes [None] and pays one match per operator. *)

module Audit = Hydra_audit.Audit

let record_audit ctx (e : Audit.expectation) kind observed =
  match ctx with
  | None -> ()
  | Some (query, trail) ->
      if e.Audit.exp_key <> "" then
        Audit.record trail
          {
            Audit.r_query = query;
            r_op = kind;
            r_rels = e.Audit.exp_rels;
            r_key = e.Audit.exp_key;
            r_expected = e.Audit.exp_card;
            r_observed = observed;
          }

let child1 (e : Audit.expectation) =
  match e.Audit.exp_children with [ c ] -> c | _ -> Audit.no_expectation

let child2 (e : Audit.expectation) =
  match e.Audit.exp_children with
  | [ a; b ] -> (a, b)
  | _ -> (Audit.no_expectation, Audit.no_expectation)

let rec exec_aux ctx db plan e =
  match plan with
  | Plan.Scan rname ->
      let generated = scan_is_generated db rname in
      let counter = if generated then m_datagen_rows else m_scan_rows in
      let res =
        op_span "exec.scan" counter ~rows_in:0 (fun () ->
            Obs.span_attr "rel" (Obs.Str rname);
            Obs.span_attr "source"
              (Obs.Str (if generated then "generated" else "stored"));
            let n = Database.nrows db rname in
            let rset =
              { width = n; bindings = [ (rname, Array.init n Fun.id) ] }
            in
            (rset, { op = "Scan(" ^ rname ^ ")"; card = n; children = [] }))
      in
      record_audit ctx e
        (if generated then Audit.Datagen_scan else Audit.Scan)
        (fst res).width;
      res
  | Plan.Filter (pred, child) ->
      let child_rset, child_ann = exec_aux ctx db child (child1 e) in
      let res =
        op_span "exec.filter" m_filter_rows ~rows_in:child_rset.width
          (fun () ->
            let rset = filter_rset db child_rset pred in
            ( rset,
              {
                op = Format.asprintf "Filter(%a)" Predicate.pp pred;
                card = rset.width;
                children = [ child_ann ];
              } ))
      in
      record_audit ctx e Audit.Filter (fst res).width;
      res
  | Plan.Group_by (attrs, child) ->
      let child_rset, child_ann = exec_aux ctx db child (child1 e) in
      let res =
        op_span "exec.group_by" m_group_rows ~rows_in:child_rset.width
          (fun () ->
            let rset = group_rset db child_rset attrs in
            ( rset,
              {
                op = Printf.sprintf "GroupBy(%s)" (String.concat "," attrs);
                card = rset.width;
                children = [ child_ann ];
              } ))
      in
      record_audit ctx e Audit.Group_by (fst res).width;
      res
  | Plan.Join (l, r, spec) ->
      let le, re = child2 e in
      let lres, lann = exec_aux ctx db l le in
      let rres, rann = exec_aux ctx db r re in
      let res =
        op_span "exec.join" m_join_rows ~rows_in:(lres.width + rres.width)
          (fun () ->
            let rset = join_rset db lres rres spec in
            ( rset,
              {
                op =
                  Printf.sprintf "Join(%s=%s.pk)" spec.Plan.fk_col
                    spec.Plan.pk_rel;
                card = rset.width;
                children = [ lann; rann ];
              } ))
      in
      record_audit ctx e Audit.Join (fst res).width;
      res

let exec db plan = exec_aux None db plan Audit.no_expectation

let exec_audited ?(query = "") trail expect db plan =
  exec_aux (Some (query, trail)) db plan expect

let cardinality db plan = (snd (exec db plan)).card

(* streaming aggregate over a base relation, bypassing rset materialization;
   used by the data-supply-time experiment (Fig. 15) where the query is a
   simple aggregate and the cost is dominated by tuple supply *)
let aggregate_sum db rname cname =
  let run () =
    let n = Database.nrows db rname in
    let rd = Database.reader db rname cname in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + rd i
    done;
    (n, !acc)
  in
  if not (Obs.enabled ()) then snd (run ())
  else
    Obs.with_span "exec.aggregate_sum" (fun () ->
        let t = Mclock.now () in
        let n, sum = run () in
        let dt = Float.max (Mclock.now () -. t) 1e-9 in
        Obs.incr m_agg_rows n;
        Obs.span_attr "rel" (Obs.Str rname);
        Obs.span_attr "source"
          (Obs.Str
             (if scan_is_generated db rname then "generated" else "stored"));
        Obs.span_attr "rows_in" (Obs.Int n);
        Obs.span_attr "rows_per_sec" (Obs.Float (float_of_int n /. dt));
        sum)

let aggregate_sum_audited ?(query = "") trail ~expected db rname cname =
  let sum = aggregate_sum db rname cname in
  let n = Database.nrows db rname in
  Audit.record trail
    {
      Audit.r_query = query;
      r_op = Audit.Aggregate;
      r_rels = [ rname ];
      r_key = Printf.sprintf "aggregate(%s.%s)" rname cname;
      r_expected = expected;
      r_observed = n;
    };
  sum

let rec pp_annotated fmt a =
  Format.fprintf fmt "@[<v 2>%s [card=%d]" a.op a.card;
  List.iter (fun c -> Format.fprintf fmt "@,%a" pp_annotated c) a.children;
  Format.fprintf fmt "@]"
