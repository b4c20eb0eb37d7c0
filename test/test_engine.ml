(* Tests for the relational substrate and the mini query engine:
   tables, predicates, plan execution, AQP cardinalities, and the
   dynamic-generation scan. *)

open Hydra_rel
open Hydra_engine

let iv = Interval.make

(* ---- interval ---- *)

let test_interval_basics () =
  Alcotest.(check bool) "contains lo" true (Interval.contains (iv 2 5) 2);
  Alcotest.(check bool) "excludes hi" false (Interval.contains (iv 2 5) 5);
  Alcotest.(check bool) "empty" true (Interval.is_empty (iv 5 2));
  Alcotest.(check bool) "inter" true
    (Interval.equal (Interval.inter (iv 0 10) (iv 5 20)) (iv 5 10));
  Alcotest.(check bool) "disjoint inter empty" true
    (Interval.is_empty (Interval.inter (iv 0 5) (iv 5 10)));
  Alcotest.(check bool) "subset" true (Interval.subset (iv 2 4) (iv 0 10));
  Alcotest.(check bool) "not subset" false (Interval.subset (iv 2 12) (iv 0 10));
  Alcotest.(check int) "width" 3 (Interval.width (iv 2 5));
  let lo, hi = Interval.split_at (iv 0 10) 4 in
  Alcotest.(check bool) "split lo" true (Interval.equal lo (iv 0 4));
  Alcotest.(check bool) "split hi" true (Interval.equal hi (iv 4 10))

let prop_interval_inter_comm =
  QCheck.Test.make ~name:"interval intersection commutative" ~count:200
    QCheck.(quad small_int small_int small_int small_int)
    (fun (a, b, c, d) ->
      let x = iv a b and y = iv c d in
      Interval.equal (Interval.inter x y) (Interval.inter y x))

(* ---- predicate ---- *)

let test_predicate_dnf () =
  let p =
    Predicate.disj
      (Predicate.of_conjuncts [ [ ("x", iv 0 10); ("y", iv 5 8) ] ])
      (Predicate.atom "x" (iv 20 30))
  in
  let at x y = Predicate.eval (fun a -> if a = "x" then x else y) p in
  Alcotest.(check bool) "in first conjunct" true (at 5 6);
  Alcotest.(check bool) "y out" false (at 5 4);
  Alcotest.(check bool) "in second disjunct" true (at 25 0);
  Alcotest.(check bool) "out" false (at 15 6);
  Alcotest.(check (list string)) "attrs" [ "x"; "y" ] (Predicate.attrs p)

let test_predicate_conj_contradiction () =
  let p =
    Predicate.conj (Predicate.atom "x" (iv 0 5)) (Predicate.atom "x" (iv 10 20))
  in
  Alcotest.(check bool) "contradiction is false" true
    (Predicate.equal p Predicate.false_)

let test_predicate_clamp () =
  let p = Predicate.atom "x" (iv min_int 50) in
  let clamped = Predicate.clamp (fun _ -> (0, 30)) p in
  Alcotest.(check bool) "clamped to domain" true
    (Predicate.equal clamped (Predicate.atom "x" (iv 0 30)))

let test_predicate_rename () =
  let p = Predicate.atom "S.A" (iv 0 5) in
  let q = Predicate.rename (fun _ -> "T1.c1") p in
  Alcotest.(check (list string)) "renamed" [ "T1.c1" ] (Predicate.attrs q)

(* ---- schema ---- *)

let diamond_schema =
  (* D <- B, D <- C, B <- A, C <- A : a DAG that is not a tree *)
  Schema.create
    [
      { Schema.rname = "D"; pk = "d_pk"; fks = []; attrs = [ { Schema.aname = "d"; dom_lo = 0; dom_hi = 10 } ] };
      { Schema.rname = "B"; pk = "b_pk"; fks = [ ("bd", "D") ]; attrs = [] };
      { Schema.rname = "C"; pk = "c_pk"; fks = [ ("cd", "D") ]; attrs = [] };
      {
        Schema.rname = "A";
        pk = "a_pk";
        fks = [ ("ab", "B"); ("ac", "C") ];
        attrs = [];
      };
    ]

let test_schema_topo_dag () =
  let order = Schema.topo_order diamond_schema in
  let pos r = Option.get (List.find_index (fun x -> x = r) order) in
  Alcotest.(check bool) "D before B" true (pos "D" < pos "B");
  Alcotest.(check bool) "D before C" true (pos "D" < pos "C");
  Alcotest.(check bool) "B before A" true (pos "B" < pos "A");
  Alcotest.(check (list string))
    "transitive refs of A" [ "B"; "C"; "D" ]
    (List.sort compare (Schema.transitive_references diamond_schema "A"));
  Alcotest.(check bool) "is dag" true (Schema.is_dag diamond_schema)

let test_schema_cycle_detected () =
  let cyclic =
    Schema.create
      [
        { Schema.rname = "X"; pk = "x_pk"; fks = [ ("xy", "Y") ]; attrs = [] };
        { Schema.rname = "Y"; pk = "y_pk"; fks = [ ("yx", "X") ]; attrs = [] };
      ]
  in
  match Schema.topo_order cyclic with
  | exception Schema.Schema_error _ -> ()
  | _ -> Alcotest.fail "expected cycle detection"

let test_schema_validation () =
  (match
     Schema.create
       [ { Schema.rname = "X"; pk = "x_pk"; fks = [ ("f", "NOPE") ]; attrs = [] } ]
   with
  | exception Schema.Schema_error _ -> ()
  | _ -> Alcotest.fail "dangling fk accepted");
  match
    Schema.create
      [
        {
          Schema.rname = "X";
          pk = "x_pk";
          fks = [];
          attrs = [ { Schema.aname = "a"; dom_lo = 5; dom_hi = 5 } ];
        };
      ]
  with
  | exception Schema.Schema_error _ -> ()
  | _ -> Alcotest.fail "empty domain accepted"

(* ---- table / csv ---- *)

let test_table_roundtrip () =
  let t = Table.create "t" [ "pk"; "a"; "b" ] in
  for i = 1 to 100 do
    Table.add_row t [| i; i * 2; i mod 7 |]
  done;
  Table.add_rows t [| 101; 0; 0 |] 5;
  Alcotest.(check int) "length" 105 (Table.length t);
  Alcotest.(check int) "get" 14 (Table.get t ~row:6 ~col:"a");
  Alcotest.(check int) "bulk row" 101 (Table.get t ~row:103 ~col:"pk");
  let path = Filename.temp_file "hydra" ".csv" in
  Csv.write_table path t;
  let t2 = Csv.read_table path "t" in
  Sys.remove path;
  Alcotest.(check int) "csv length" 105 (Table.length t2);
  Alcotest.(check int) "csv cell" 14 (Table.get t2 ~row:6 ~col:"a")

(* ---- executor ---- *)

let tiny_db () =
  let schema =
    Schema.create
      [
        {
          Schema.rname = "dim";
          pk = "dim_pk";
          fks = [];
          attrs = [ { Schema.aname = "x"; dom_lo = 0; dom_hi = 100 } ];
        };
        {
          Schema.rname = "fact";
          pk = "fact_pk";
          fks = [ ("f_dim", "dim") ];
          attrs = [ { Schema.aname = "y"; dom_lo = 0; dom_hi = 10 } ];
        };
      ]
  in
  let db = Database.create schema in
  (* dim: 10 rows, x = 10*i ; fact: 50 rows, f_dim = (i mod 10)+1, y = i mod 10 *)
  let dim = Table.create "dim" [ "dim_pk"; "x" ] in
  for i = 1 to 10 do
    Table.add_row dim [| i; 10 * (i - 1) |]
  done;
  let fact = Table.create "fact" [ "fact_pk"; "f_dim"; "y" ] in
  for i = 1 to 50 do
    Table.add_row fact [| i; (i mod 10) + 1; i mod 10 |]
  done;
  Database.bind_table db dim;
  Database.bind_table db fact;
  db

let test_executor_scan_filter () =
  let db = tiny_db () in
  Alcotest.(check int) "scan card" 10 (Executor.cardinality db (Plan.Scan "dim"));
  let plan = Plan.Filter (Predicate.atom "dim.x" (iv 0 50), Plan.Scan "dim") in
  Alcotest.(check int) "filter card" 5 (Executor.cardinality db plan)

let test_executor_join () =
  let db = tiny_db () in
  let join =
    Plan.Join
      ( Plan.Scan "fact",
        Plan.Scan "dim",
        { Plan.fk_col = "fact.f_dim"; pk_rel = "dim" } )
  in
  Alcotest.(check int) "pk-fk join keeps all fact rows" 50
    (Executor.cardinality db join);
  (* filtered dim: x < 50 keeps dims 1..5, fact rows with f_dim <= 5 *)
  let join_filtered =
    Plan.Join
      ( Plan.Scan "fact",
        Plan.Filter (Predicate.atom "dim.x" (iv 0 50), Plan.Scan "dim"),
        { Plan.fk_col = "fact.f_dim"; pk_rel = "dim" } )
  in
  let expected = 25 (* f_dim in 1..5: i mod 10 in 0..4 -> 25 rows *) in
  Alcotest.(check int) "join with filtered build side" expected
    (Executor.cardinality db join_filtered);
  (* annotated plan exposes per-operator cardinalities *)
  let _, ann = Executor.exec db join_filtered in
  Alcotest.(check int) "root card" expected ann.Executor.card;
  match ann.Executor.children with
  | [ left; right ] ->
      Alcotest.(check int) "left scan" 50 left.Executor.card;
      Alcotest.(check int) "right filter" 5 right.Executor.card
  | _ -> Alcotest.fail "join should have two children"

let test_executor_post_join_filter () =
  let db = tiny_db () in
  let plan =
    Plan.Filter
      ( Predicate.conj
          (Predicate.atom "dim.x" (iv 0 50))
          (Predicate.atom "fact.y" (iv 0 2)),
        Plan.Join
          ( Plan.Scan "fact",
            Plan.Scan "dim",
            { Plan.fk_col = "fact.f_dim"; pk_rel = "dim" } ) )
  in
  (* y in {0,1} and f_dim in 1..5 -> i mod 10 in {0,1} -> 10 rows *)
  Alcotest.(check int) "conjunctive filter over join" 10
    (Executor.cardinality db plan)

let test_aggregate_sum () =
  let db = tiny_db () in
  (* sum of y over fact: 50 rows with y = i mod 10: 5 * (0+..+9) = 225 *)
  Alcotest.(check int) "aggregate" 225 (Executor.aggregate_sum db "fact" "y")

let test_group_by_over_generated () =
  (* duplicate elimination must work identically over a virtual source *)
  let db = tiny_db () in
  let gen =
    {
      Database.gen_pk = "fact_pk";
      gen_starts = Array.init 51 Fun.id;
      gen_cols =
        [
          ("f_dim", Array.init 50 (fun r -> ((r + 1) mod 10) + 1));
          ("y", Array.init 50 (fun r -> (r + 1) mod 10));
        ];
    }
  in
  Database.bind db "fact" (Database.Generated gen);
  let plan = Plan.Group_by ([ "fact.y" ], Plan.Scan "fact") in
  Alcotest.(check int) "distinct y over generated" 10
    (Executor.cardinality db plan)

let test_generated_source () =
  let db = tiny_db () in
  (* replace dim with a generated source computing the same contents *)
  let gen =
    {
      Database.gen_pk = "dim_pk";
      gen_starts = Array.init 11 Fun.id;
      gen_cols = [ ("x", Array.init 10 (fun r -> 10 * r)) ];
    }
  in
  Database.bind db "dim" (Database.Generated gen);
  let plan = Plan.Filter (Predicate.atom "dim.x" (iv 0 50), Plan.Scan "dim") in
  Alcotest.(check int) "generated filter card" 5 (Executor.cardinality db plan)

(* ---- executor kernels against a per-row reference ----

   The reference is the tuple-at-a-time executor the column kernels
   replaced: a per-row attribute lookup through [Predicate.eval], a join
   collecting a list of (left, right) pairs from [Hashtbl.find_all], and
   a group-by keyed by the per-row list of lookups. The kernels must
   reproduce its widths, its bindings in order and its annotated trees,
   over stored, generated and mixed databases. *)

module Tuple_gen = Hydra_core.Tuple_gen
module Summary = Hydra_core.Summary

let ref_lookup db (rset : Executor.rset) =
  let cache = Hashtbl.create 8 in
  fun i qattr ->
    let rd, rows =
      match Hashtbl.find_opt cache qattr with
      | Some v -> v
      | None ->
          let rname, aname = Schema.split_qualified qattr in
          let v = (Database.reader db rname aname, Executor.binding rset rname) in
          Hashtbl.add cache qattr v;
          v
    in
    rd rows.(i)

let ref_select (rset : Executor.rset) sel =
  {
    Executor.width = Array.length sel;
    bindings =
      List.map (fun (r, rows) -> (r, Array.map (fun i -> rows.(i)) sel)) rset.Executor.bindings;
  }

let ref_filter db (rset : Executor.rset) pred =
  let lookup = ref_lookup db rset in
  let keep = ref [] in
  for i = rset.Executor.width - 1 downto 0 do
    if Predicate.eval (fun a -> lookup i a) pred then keep := i :: !keep
  done;
  ref_select rset (Array.of_list !keep)

let ref_join db (left : Executor.rset) (right : Executor.rset) spec =
  let fk_rel, fk_attr = Schema.split_qualified spec.Plan.fk_col in
  let pk_name = (Schema.find (Database.schema db) spec.Plan.pk_rel).Schema.pk in
  let pk_read = Database.reader db spec.Plan.pk_rel pk_name in
  let right_rows = Executor.binding right spec.Plan.pk_rel in
  let build = Hashtbl.create 16 in
  for j = 0 to right.Executor.width - 1 do
    Hashtbl.add build (pk_read right_rows.(j)) j
  done;
  let fk_read = Database.reader db fk_rel fk_attr in
  let left_rows = Executor.binding left fk_rel in
  let pairs = ref [] in
  for i = left.Executor.width - 1 downto 0 do
    List.iter
      (fun j -> pairs := (i, j) :: !pairs)
      (Hashtbl.find_all build (fk_read left_rows.(i)))
  done;
  let pairs = Array.of_list !pairs in
  {
    Executor.width = Array.length pairs;
    bindings =
      List.map (fun (r, rows) -> (r, Array.map (fun (i, _) -> rows.(i)) pairs)) left.Executor.bindings
      @ List.map
          (fun (r, rows) -> (r, Array.map (fun (_, j) -> rows.(j)) pairs))
          right.Executor.bindings;
  }

let ref_group db (rset : Executor.rset) attrs =
  let lookup = ref_lookup db rset in
  let seen = Hashtbl.create 16 in
  let keep = ref [] in
  for i = 0 to rset.Executor.width - 1 do
    let key = List.map (fun a -> lookup i a) attrs in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      keep := i :: !keep
    end
  done;
  ref_select rset (Array.of_list (List.rev !keep))

let rec ref_exec db plan =
  let node op (rset : Executor.rset) children =
    (rset, { Executor.op; card = rset.Executor.width; children })
  in
  match plan with
  | Plan.Scan r ->
      let n = Database.nrows db r in
      node ("Scan(" ^ r ^ ")") { Executor.width = n; bindings = [ (r, Array.init n Fun.id) ] } []
  | Plan.Filter (pred, child) ->
      let rset, ann = ref_exec db child in
      node (Format.asprintf "Filter(%a)" Predicate.pp pred) (ref_filter db rset pred) [ ann ]
  | Plan.Group_by (attrs, child) ->
      let rset, ann = ref_exec db child in
      node
        (Printf.sprintf "GroupBy(%s)" (String.concat "," attrs))
        (ref_group db rset attrs) [ ann ]
  | Plan.Join (l, r, spec) ->
      let lrset, lann = ref_exec db l in
      let rrset, rann = ref_exec db r in
      node
        (Printf.sprintf "Join(%s=%s.pk)" spec.Plan.fk_col spec.Plan.pk_rel)
        (ref_join db lrset rrset spec) [ lann; rann ]

(* d <- m <- f and d <- f: joining m to d first puts each d row in the
   result once per m row, so a later join on d.pk builds over repeated
   keys *)
let kernel_schema =
  let attr aname = { Schema.aname; dom_lo = 0; dom_hi = 8 } in
  Schema.create
    [
      { Schema.rname = "d"; pk = "d_pk"; fks = []; attrs = [ attr "x"; attr "y" ] };
      { Schema.rname = "m"; pk = "m_pk"; fks = [ ("m_d", "d") ]; attrs = [ attr "z" ] };
      {
        Schema.rname = "f";
        pk = "f_pk";
        fks = [ ("f_m", "m"); ("f_d", "d") ];
        attrs = [ attr "w" ];
      };
    ]

let kernel_edges = [ ("f", "f_m", "m"); ("f", "f_d", "d"); ("m", "m_d", "d") ]

let rel_attrs r =
  let rel = Schema.find kernel_schema r in
  List.map (fun c -> r ^ "." ^ c) (Schema.columns rel)

(* A random summary over [kernel_schema]: a few row-groups per relation,
   some relations empty, some with long runs, fk values that mostly hit
   (pk = row + 1) and sometimes dangle, past either end of the pk range
   or at the ends of [int]. *)
let kernel_summary seed =
  let st = Random.State.make [| seed |] in
  let total = Hashtbl.create 3 in
  let relation r =
    let rel = Schema.find kernel_schema r in
    let cols = List.map fst rel.Schema.fks @ List.map (fun a -> a.Schema.aname) rel.Schema.attrs in
    let value c =
      match List.assoc_opt c rel.Schema.fks with
      | Some target -> (
          let n = Hashtbl.find total target in
          match Random.State.int st 12 with
          | 0 -> [| min_int; max_int; -1; n + 7 |].(Random.State.int st 4)
          | _ -> Random.State.int st (n + 2))
      | None -> Random.State.int st 8
    in
    let ngroups = if Random.State.int st 8 = 0 then 0 else 1 + Random.State.int st 5 in
    let run = if Random.State.bool st then 5 else 40 in
    let rows =
      Array.init ngroups (fun _ ->
          (Array.of_list (List.map value cols), 1 + Random.State.int st run))
    in
    let n = Array.fold_left (fun a (_, c) -> a + c) 0 rows in
    Hashtbl.replace total r n;
    { Summary.rs_rel = r; rs_cols = Array.of_list cols; rs_rows = rows; rs_total = n }
  in
  let relations = List.map relation [ "d"; "m"; "f" ] in
  { Summary.schema = kernel_schema; views = []; relations; extra_tuples = [] }

(* The materialized tables with every relation's pks renamed, fks
   following: shuffled (a permutation of 1..n), spaced (2r + 1, a range
   under twice the row count) or sparse (a range far wider, which the
   join must hash). Under a filter, shuffled and spaced keys build
   tables whose key range is wider than twice the build rows but under
   twice the relation's. Values outside 1..n stay as they are, so dangling
   fks still dangle unless a rename happens to hit them. *)
let renamed_db summary st =
  let stored = Tuple_gen.materialize summary in
  let renames =
    List.map
      (fun (rs : Summary.relation_summary) ->
        let n = rs.Summary.rs_total in
        let perm = Array.init n (fun i -> i + 1) in
        for i = n - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        let f =
          match Random.State.int st 3 with
          | 0 -> fun v -> perm.(v - 1)
          | 1 -> fun v -> (2 * v) + 1
          | _ -> fun v -> (7919 * v) - (3 * n)
        in
        (rs.Summary.rs_rel, fun v -> if 1 <= v && v <= n then f v else v))
      summary.Summary.relations
  in
  let db = Database.create kernel_schema in
  List.iter
    (fun r ->
      let rel = Schema.find kernel_schema r in
      let t =
        match Database.source stored r with
        | Database.Stored t -> t
        | Database.Generated _ -> assert false
      in
      let col c =
        let rename =
          if c = rel.Schema.pk then List.assoc r renames
          else
            match List.assoc_opt c rel.Schema.fks with
            | Some target -> List.assoc target renames
            | None -> Fun.id
        in
        Array.map rename (Table.column t c)
      in
      let names = Schema.columns rel in
      Database.bind_table db (Table.of_columns r names (List.map col names)))
    [ "d"; "m"; "f" ];
  db

let gen_pred scope st =
  let attrs = Array.of_list (List.concat_map rel_attrs scope) in
  let pick () = attrs.(Random.State.int st (Array.length attrs)) in
  let atom () =
    let lo = Random.State.int st 10 - 1 in
    (pick (), Interval.make lo (lo + 1 + Random.State.int st 6))
  in
  let conjunct () = List.init (1 + Random.State.int st 3) (fun _ -> atom ()) in
  match Random.State.int st 7 with
  | 0 -> Predicate.true_
  | 1 -> Predicate.false_
  | 2 ->
      let a, iv = atom () in
      Predicate.atom a iv
  | _ -> Predicate.of_conjuncts (List.init (1 + Random.State.int st 3) (fun _ -> conjunct ()))

(* a plan whose scope holds [r] and none of [avoid]; the scope is
   returned with it *)
let rec gen_sub st depth avoid r =
  let joins =
    List.filter
      (fun (a, _, b) -> (a = r || b = r) && not (List.mem (if a = r then b else a) (r :: avoid)))
      kernel_edges
  in
  let plan, scope =
    if depth = 0 || joins = [] || Random.State.int st 3 = 0 then (Plan.Scan r, [ r ])
    else begin
      let a, fk, b = List.nth joins (Random.State.int st (List.length joins)) in
      let lplan, lscope = gen_sub st (depth - 1) (if a = r then b :: avoid else r :: avoid) a in
      let rplan, rscope = gen_sub st (depth - 1) (lscope @ avoid) b in
      (Plan.Join (lplan, rplan, { Plan.fk_col = a ^ "." ^ fk; pk_rel = b }), lscope @ rscope)
    end
  in
  match Random.State.int st 4 with
  | 0 -> (Plan.Filter (gen_pred scope st, plan), scope)
  | 1 when depth < 2 ->
      let attrs = Array.of_list (List.concat_map rel_attrs scope) in
      let a1 = attrs.(Random.State.int st (Array.length attrs)) in
      let a2 = attrs.(Random.State.int st (Array.length attrs)) in
      (Plan.Group_by (List.sort_uniq compare [ a1; a2 ], plan), scope)
  | _ -> (plan, scope)

let arb_kernel_case =
  QCheck.make
    ~print:(fun (seed, plan) -> Printf.sprintf "data seed %d: %s" seed (Plan.to_string plan))
    (fun st ->
      let seed = Random.State.bits st in
      let root = [| "d"; "m"; "f" |].(Random.State.int st 3) in
      (seed, fst (gen_sub st 3 [] root)))

(* The d relation's rows come out of m join d in m's fk order, not
   ascending: these plans build over them, filter them with one atom and
   group them. *)
let m_join_d = Plan.Join (Plan.Scan "m", Plan.Scan "d", { Plan.fk_col = "m.m_d"; pk_rel = "d" })

let fixed_plans =
  [
    Plan.Join (Plan.Scan "f", m_join_d, { Plan.fk_col = "f.f_d"; pk_rel = "d" });
    Plan.Filter (Predicate.atom "d.x" (Interval.make 2 6), m_join_d);
    Plan.Group_by ([ "d.y"; "m.z" ], m_join_d);
  ]

let prop_kernels_match_reference =
  QCheck.Test.make ~name:"column kernels match the per-row reference" ~count:300
    arb_kernel_case (fun (seed, plan) ->
      let summary = kernel_summary seed in
      let st = Random.State.make [| seed; 1 |] in
      let dynamic_relations = List.filter (fun _ -> Random.State.bool st) [ "d"; "m"; "f" ] in
      List.for_all
        (fun db ->
          List.for_all
            (fun plan ->
              let rset, ann = Executor.exec db plan in
              let ref_rset, ref_ann = ref_exec db plan in
              rset.Executor.width = ref_rset.Executor.width
              && rset.Executor.bindings = ref_rset.Executor.bindings
              && ann = ref_ann)
            (plan :: fixed_plans))
        [
          Tuple_gen.materialize summary;
          Tuple_gen.dynamic summary;
          Tuple_gen.with_datagen summary ~dynamic_relations;
          renamed_db summary st;
        ])

let suite =
  [
    ( "interval",
      [ Alcotest.test_case "basics" `Quick test_interval_basics ]
      @ [ QCheck_alcotest.to_alcotest prop_interval_inter_comm ] );
    ( "predicate",
      [
        Alcotest.test_case "dnf eval" `Quick test_predicate_dnf;
        Alcotest.test_case "contradiction" `Quick test_predicate_conj_contradiction;
        Alcotest.test_case "clamp" `Quick test_predicate_clamp;
        Alcotest.test_case "rename" `Quick test_predicate_rename;
      ] );
    ( "schema",
      [
        Alcotest.test_case "DAG topo order" `Quick test_schema_topo_dag;
        Alcotest.test_case "cycle detection" `Quick test_schema_cycle_detected;
        Alcotest.test_case "validation" `Quick test_schema_validation;
      ] );
    ( "table",
      [ Alcotest.test_case "roundtrip + csv" `Quick test_table_roundtrip ] );
    ( "executor",
      [
        Alcotest.test_case "scan/filter" `Quick test_executor_scan_filter;
        Alcotest.test_case "pk-fk join" `Quick test_executor_join;
        Alcotest.test_case "post-join filter" `Quick test_executor_post_join_filter;
        Alcotest.test_case "aggregate" `Quick test_aggregate_sum;
        Alcotest.test_case "generated source" `Quick test_generated_source;
        Alcotest.test_case "group-by over generated" `Quick
          test_group_by_over_generated;
        QCheck_alcotest.to_alcotest prop_kernels_match_reference;
      ] );
  ]

let () = Alcotest.run "hydra-engine" suite
