(* Plan execution with per-operator output cardinalities.

   Results are binding sets in struct-of-arrays form: for each relation in
   scope, a parallel array of row indices. This keeps multi-way join
   results compact and makes cardinality counting free.

   Every operator is a plain loop over int arrays: every attribute an
   operator reads is gathered once over the input's rows
   ([Database.gather]), the kernels loop over those arrays into
   selection or pair vectors, and the output bindings are taken once
   through them. Output order is part of the contract: filters keep
   input order, join pairs are left-ascending then right-ascending, and
   group-by keeps the first row of each key, so the row ids that
   survive a group-by depend on the order below it. The gathers, the
   join's build and probe and the takes run in spans of their own
   ([exec.gather], [exec.build], [exec.probe], [exec.take]), one flag
   test each when tracing is off. *)

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
let take rows sel =
  let out = Array.make (Array.length sel) 0 in
  for i = 0 to Array.length sel - 1 do
    Array.unsafe_set out i rows.(Array.unsafe_get sel i)
  done;
  out

let take_all bindings sel =
  Obs.with_span "exec.take" (fun () ->
      List.map (fun (r, rows) -> (r, take rows sel)) bindings)

let select rset sel =
  { width = Array.length sel; bindings = take_all rset.bindings sel }

(* one attribute's values over the rset's rows, in row order *)
let gather db rset qattr =
  let rname, aname = Schema.split_qualified qattr in
  let rows = binding rset rname in
  Obs.with_span "exec.gather" (fun () -> Database.gather db rname aname rows)

(* the first [len] entries of [a], without a copy when that is all of it *)
let prefix a len = if len = Array.length a then a else Array.sub a 0 len

(* The DNF predicate compiled once per operator: every attribute is
   gathered into one column, and the atoms are laid out flat, conjunct
   [c] owning atoms [first.(c)] to [first.(c + 1) - 1]. A row passes
   when some conjunct's atoms all hold; TRUE is one empty conjunct,
   FALSE none. The passing positions fill a selection vector in input
   order. *)
let filter_rset db rset pred =
  let cols = List.map (fun a -> (a, gather db rset a)) (Predicate.attrs pred) in
  let atoms = Array.of_list (List.concat pred) in
  let acol = Array.map (fun (a, _) -> List.assoc a cols) atoms in
  let alo = Array.map (fun (_, iv) -> iv.Interval.lo) atoms in
  let ahi = Array.map (fun (_, iv) -> iv.Interval.hi) atoms in
  let nconj = List.length pred in
  let first = Array.make (nconj + 1) 0 in
  List.iteri (fun c atoms -> first.(c + 1) <- first.(c) + List.length atoms) pred;
  let sel = Array.make rset.width 0 and k = ref 0 in
  for i = 0 to rset.width - 1 do
    let c = ref 0 and passes = ref false in
    while (not !passes) && !c < nconj do
      let a = ref first.(!c) and stop = first.(!c + 1) in
      while
        !a < stop
        &&
        let v = acol.(!a).(i) in
        alo.(!a) <= v && v < ahi.(!a)
      do
        incr a
      done;
      passes := !a = stop;
      incr c
    done;
    if !passes then begin
      Array.unsafe_set sel !k i;
      incr k
    end
  done;
  select rset (prefix sel !k)

(* The build table over the gathered pk column. [heads] maps a key's
   slot to the smallest build position holding that key (-1: none), and
   [next] chains the later positions with the same key in ascending
   order, -1 ending a chain. When the keys span fewer values than twice
   the larger of the build's row count and the pk relation's [nrel], a
   key's slot is its offset from the smallest key [lo]: pks numbered
   [row + 1] always do, however selective the filter under the build,
   and the slot array is then no longer than the scan that fed it.
   Other key sets (sparse stored pks) hash: open addressing with linear
   probing over a power-of-two slot count, [keys] holding each slot's
   key. *)
type build = {
  direct : bool;
  lo : int;
  keys : int array;
  heads : int array;
  next : int array;
  shift : int;
}

(* Fibonacci hashing: the top bits of the product pick the slot *)
let slot t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

let rec find_slot t k s =
  if t.heads.(s) < 0 || t.keys.(s) = k then s
  else find_slot t k ((s + 1) land (Array.length t.keys - 1))

(* the first build position with key [k], or -1; [k - lo] wraps only
   for keys far outside [lo, lo + length heads) *)
let head t k =
  if t.direct then
    let s = k - t.lo in
    if 0 <= s && s < Array.length t.heads then t.heads.(s) else -1
  else t.heads.(find_slot t k (slot t k))

let build_table ~nrel pk =
  let n = Array.length pk in
  let lo = ref max_int and hi = ref min_int in
  for j = 0 to n - 1 do
    let k = Array.unsafe_get pk j in
    if k < !lo then lo := k;
    if k > !hi then hi := k
  done;
  (* [hi - lo] wraps negative when the true span overflows *)
  let span = !hi - !lo in
  let direct = n > 0 && span >= 0 && span < 2 * max n nrel in
  let bits = ref 4 in
  while (not direct) && 1 lsl !bits < 2 * n do
    incr bits
  done;
  let t =
    {
      direct;
      lo = !lo;
      keys = (if direct then [||] else Array.make (1 lsl !bits) 0);
      heads = Array.make (if direct then span + 1 else 1 lsl !bits) (-1);
      next = Array.make n (-1);
      shift = Sys.int_size - !bits;
    }
  in
  (* descending insertion leaves each chain ascending *)
  for j = n - 1 downto 0 do
    let k = pk.(j) in
    let s = if direct then k - t.lo else find_slot t k (slot t k) in
    t.next.(j) <- t.heads.(s);
    if not direct then t.keys.(s) <- k;
    t.heads.(s) <- j
  done;
  t

(* Every (left, right) position pair whose fk finds the build key, left
   ascending, then right ascending. The vectors start at the left
   input's length, which a probe outgrows only when the build side
   repeats keys. *)
let probe table fk =
  let li = ref (Array.make (Array.length fk) 0) in
  let ri = ref (Array.make (Array.length fk) 0) in
  let k = ref 0 in
  let grow a =
    let d = Array.make (max 16 (2 * Array.length a)) 0 in
    Array.blit a 0 d 0 (Array.length a);
    d
  in
  for i = 0 to Array.length fk - 1 do
    let j = ref (head table (Array.unsafe_get fk i)) in
    while !j >= 0 do
      if !k = Array.length !li then begin
        li := grow !li;
        ri := grow !ri
      end;
      Array.unsafe_set !li !k i;
      Array.unsafe_set !ri !k !j;
      incr k;
      j := table.next.(!j)
    done
  done;
  (prefix !li !k, prefix !ri !k)

(* PK-FK join: the probe side (left) carries the fk, the build side
   (right) is the pk relation's current binding set. Build keys repeat
   when the pk relation was already joined, so one fk can match several
   build positions. *)
let join_rset db left right spec =
  let pk_name = (Schema.find (Database.schema db) spec.Plan.pk_rel).Schema.pk in
  let pk = gather db right (spec.Plan.pk_rel ^ "." ^ pk_name) in
  let nrel = Database.nrows db spec.Plan.pk_rel in
  let table = Obs.with_span "exec.build" (fun () -> build_table ~nrel pk) in
  let fk = gather db left spec.Plan.fk_col in
  let li, ri = Obs.with_span "exec.probe" (fun () -> probe table fk) in
  {
    width = Array.length li;
    bindings = take_all left.bindings li @ take_all right.bindings ri;
  }

(* duplicate elimination: keep the first result row of each distinct value
   combination of the grouping attributes *)
let group_rset db rset attrs =
  let cols = Array.of_list (List.map (gather db rset) attrs) in
  let seen = Hashtbl.create (max 16 rset.width) in
  let sel = Array.make rset.width 0 and k = ref 0 in
  for i = 0 to rset.width - 1 do
    let key = Array.make (Array.length cols) 0 in
    for c = 0 to Array.length cols - 1 do
      key.(c) <- cols.(c).(i)
    done;
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      sel.(!k) <- i;
      incr k
    end
  done;
  select rset (prefix sel !k)

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
            let ids = Array.make n 0 in
            for i = 0 to n - 1 do
              Array.unsafe_set ids i i
            done;
            let rset = { width = n; bindings = [ (rname, ids) ] } in
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
                op = "Filter(" ^ Predicate.to_string pred ^ ")";
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
