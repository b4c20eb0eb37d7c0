(* Core pipeline tests built around the paper's own worked examples:
   - Figures 3/4: the Person view, where grid partitioning yields 16 cells
     and region partitioning exactly 4 regions;
   - Figure 1: the R/S/T toy scenario, regenerated end-to-end and validated
     for volumetric similarity;
   - invariant property tests for region partitioning. *)

open Hydra_rel
open Hydra_workload
open Hydra_core

let iv = Interval.make

(* ---- Person (Figures 3 and 4) ---- *)

let person_attrs = [| "age"; "salary" |]
let person_domains = [| iv 0 80; iv 0 80 |] (* salary in K units *)

let person_ccs =
  [|
    Predicate.of_conjuncts [ [ ("age", iv min_int 40); ("salary", iv min_int 40) ] ];
    Predicate.of_conjuncts [ [ ("age", iv 20 60); ("salary", iv 20 60) ] ];
    Predicate.true_;
  |]

let clamp_person p =
  Predicate.clamp
    (fun a -> ignore a; (0, 80))
    p

let test_person_regions () =
  let constraints = Array.map clamp_person person_ccs in
  let part =
    Region.optimal_partition ~attrs:person_attrs ~domains:person_domains
      constraints
  in
  Alcotest.(check int) "four regions (Fig. 3b)" 4 (Region.num_regions part);
  Alcotest.(check bool) "valid partition" true (Region.is_partition part);
  Alcotest.(check bool) "labels distinct" true (Region.labels_distinct part);
  Alcotest.(check bool) "label homogeneous" true
    (Region.label_homogeneous part constraints)

let test_person_grid () =
  let constraints = Array.map clamp_person person_ccs in
  let count =
    Grid.cell_count ~attrs:person_attrs ~domains:person_domains constraints
  in
  (* boundaries per dim: 0,20,40,60,80 -> 4 intervals; 4*4 = 16 (Fig. 3a) *)
  Alcotest.(check string) "sixteen grid cells (Fig. 3a)" "16"
    (Hydra_arith.Bigint.to_string count);
  let grid =
    Grid.materialize ~attrs:person_attrs ~domains:person_domains constraints
  in
  Alcotest.(check int) "materialized cells" 16 (Grid.num_cells grid);
  (* constraint 1 covers cells with age<40, salary<40: 2x2 = 4 cells *)
  Alcotest.(check int) "cells under C1" 4
    (List.length (Grid.cells_satisfying grid (clamp_person person_ccs.(0))))

let test_grid_too_large () =
  (* 12 attributes x many boundaries: astronomically many cells *)
  let n = 12 in
  let attrs = Array.init n (fun i -> Printf.sprintf "a%d" i) in
  let domains = Array.make n (iv 0 1000) in
  let constraints =
    Array.init 10 (fun k ->
        Predicate.of_conjuncts
          [
            Array.to_list
              (Array.init n (fun i ->
                   (attrs.(i), iv (10 * k) (500 + (10 * k)))));
          ])
  in
  let count = Grid.cell_count ~attrs ~domains constraints in
  Alcotest.(check bool) "cell count exceeds native ints" true
    (Hydra_arith.Bigint.to_int count = None
    || Hydra_arith.Bigint.to_int_exn count > 1_000_000_000);
  match Grid.materialize ~attrs ~domains constraints with
  | exception Grid.Too_large _ -> ()
  | _ -> Alcotest.fail "expected Grid.Too_large"

(* ---- Figure 1 toy scenario ---- *)

let toy_schema =
  Schema.create
    [
      {
        Schema.rname = "S";
        pk = "S_pk";
        fks = [];
        attrs =
          [
            { Schema.aname = "A"; dom_lo = 0; dom_hi = 100 };
            { Schema.aname = "B"; dom_lo = 0; dom_hi = 50 };
          ];
      };
      {
        Schema.rname = "T";
        pk = "T_pk";
        fks = [];
        attrs = [ { Schema.aname = "C"; dom_lo = 0; dom_hi = 10 } ];
      };
      {
        Schema.rname = "R";
        pk = "R_pk";
        fks = [ ("S_fk", "S"); ("T_fk", "T") ];
        attrs = [];
      };
    ]

let toy_ccs =
  let sel attr lo hi = Predicate.atom attr (iv lo hi) in
  [
    Cc.size_cc "R" 80000;
    Cc.size_cc "S" 700;
    Cc.size_cc "T" 1500;
    Cc.make [ "S" ] (sel "S.A" 20 60) 400;
    Cc.make [ "T" ] (sel "T.C" 2 3) 900;
    Cc.make [ "R"; "S" ] (sel "S.A" 20 60) 50000;
    Cc.make [ "R"; "S"; "T" ]
      (Predicate.conj (sel "S.A" 20 60) (sel "T.C" 2 3))
      30000;
  ]

let test_toy_preprocess () =
  let views = Preprocess.run toy_schema toy_ccs in
  Alcotest.(check int) "three views" 3 (List.length views);
  let rv = List.find (fun v -> v.Preprocess.vrel = "R") views in
  (* R_view borrows A, B from S and C from T (Sec. 3.2) *)
  Alcotest.(check (list string))
    "R_view attributes" [ "S.A"; "S.B"; "T.C" ]
    (List.sort compare rv.Preprocess.vattrs);
  Alcotest.(check int) "R total" 80000 rv.Preprocess.total;
  Alcotest.(check int) "R view ccs" 2 (List.length rv.Preprocess.view_ccs)

let test_toy_pipeline () =
  let result = Pipeline.regenerate toy_schema toy_ccs in
  let summary = result.Pipeline.summary in
  (* validate on the materialized database *)
  let db = Tuple_gen.materialize summary in
  let v = Validate.check db toy_ccs in
  Alcotest.(check bool)
    (Format.asprintf "max error small (%a)" Validate.pp v)
    true
    (v.Validate.max_abs_error < 0.01);
  Alcotest.(check bool) "no negative errors (Sec. 7.1)" true
    (v.Validate.negative_fraction = 0.0);
  (* the summary is tiny compared to the data it regenerates *)
  Alcotest.(check bool) "summary is small" true
    (Summary.summary_rows summary < 100);
  Alcotest.(check bool) "data is big" true (Summary.total_rows summary >= 82000)

let test_toy_dynamic_matches_static () =
  let result = Pipeline.regenerate toy_schema toy_ccs in
  let summary = result.Pipeline.summary in
  let static_db = Tuple_gen.materialize summary in
  let dyn_db = Tuple_gen.dynamic summary in
  List.iter
    (fun (cc : Cc.t) ->
      Alcotest.(check int)
        (Format.asprintf "same cardinality for %a" Cc.pp cc)
        (Cc.measure static_db cc) (Cc.measure dyn_db cc))
    toy_ccs;
  (* row-level agreement on R *)
  let r = Schema.find toy_schema "R" in
  let cols = Schema.columns r in
  let n_static = Hydra_engine.Database.nrows static_db "R" in
  let n_dyn = Hydra_engine.Database.nrows dyn_db "R" in
  Alcotest.(check int) "same row count" n_static n_dyn;
  List.iter
    (fun c ->
      let rd_s = Hydra_engine.Database.reader static_db "R" c in
      let rd_d = Hydra_engine.Database.reader dyn_db "R" c in
      for i = 0 to n_static - 1 do
        if rd_s i <> rd_d i then
          Alcotest.failf "row %d col %s: static %d vs dynamic %d" i c (rd_s i)
            (rd_d i)
      done)
    cols

let test_validate_helpers () =
  let result = Pipeline.regenerate toy_schema toy_ccs in
  let db = Tuple_gen.materialize result.Pipeline.summary in
  (* perturb the expectations to create known errors *)
  let perturbed =
    List.map
      (fun (cc : Cc.t) ->
        if cc.Cc.relations = [ "T" ] && Predicate.equal cc.Cc.predicate Predicate.true_
        then Cc.size_cc "T" 1000 (* actual is 1500: +50% *)
        else cc)
      toy_ccs
  in
  let v = Validate.check db perturbed in
  Alcotest.(check int) "one erroneous cc" 1
    (List.length (List.filter (fun (r : Validate.cc_report) -> r.Validate.rel_error <> 0.0) v.Validate.reports));
  (match Validate.worst v 1 with
  | [ w ] ->
      Alcotest.(check int) "worst actual" 1500 w.Validate.actual;
      Alcotest.(check bool) "worst error +50%" true
        (Float.abs (w.Validate.rel_error -. 0.5) < 1e-9)
  | _ -> Alcotest.fail "worst 1 should return one report");
  Alcotest.(check bool) "coverage below threshold" true
    (Validate.coverage_at v 0.4 < 1.0);
  Alcotest.(check bool) "coverage above threshold" true
    (Validate.coverage_at v 0.6 = 1.0);
  (match Validate.coverage_curve v [ 0.0; 1.0 ] with
  | [ (_, at0); (_, at1) ] ->
      Alcotest.(check bool) "curve monotone" true (at0 <= at1)
  | _ -> Alcotest.fail "curve arity")

let test_toy_summary_roundtrip () =
  let result = Pipeline.regenerate toy_schema toy_ccs in
  let summary = result.Pipeline.summary in
  let path = Filename.temp_file "hydra" ".summary" in
  Summary.save path summary;
  let loaded = Summary.load path toy_schema in
  Sys.remove path;
  List.iter2
    (fun (a : Summary.relation_summary) (b : Summary.relation_summary) ->
      Alcotest.(check string) "relation name" a.Summary.rs_rel b.Summary.rs_rel;
      Alcotest.(check int) "total" a.Summary.rs_total b.Summary.rs_total;
      Alcotest.(check int) "rows" (Array.length a.Summary.rs_rows)
        (Array.length b.Summary.rs_rows))
    summary.Summary.relations loaded.Summary.relations;
  (* the loaded summary regenerates the same database *)
  let db = Tuple_gen.materialize loaded in
  let v = Validate.check db toy_ccs in
  Alcotest.(check bool) "loaded summary still valid" true
    (v.Validate.max_abs_error < 0.01)

let test_summary_load_is_exact_inverse () =
  (* regression: load used to drop [views] and [extra_tuples], so a
     saved-then-loaded summary failed Validate.check_summary and could
     not seed dynamic regeneration. load must now invert save exactly. *)
  let result = Pipeline.regenerate toy_schema toy_ccs in
  let summary = result.Pipeline.summary in
  Alcotest.(check bool) "toy summary has views" true
    (summary.Summary.views <> []);
  let path = Filename.temp_file "hydra" ".summary" in
  Summary.save path summary;
  let loaded = Summary.load path toy_schema in
  Alcotest.(check int) "view count survives"
    (List.length summary.Summary.views)
    (List.length loaded.Summary.views);
  List.iter2
    (fun (a : Summary.view_summary) (b : Summary.view_summary) ->
      Alcotest.(check string) "view relation" a.Summary.vs_rel b.Summary.vs_rel;
      Alcotest.(check (array string)) "view attrs" a.Summary.vs_attrs
        b.Summary.vs_attrs;
      Alcotest.(check (list (pair (array int) int)))
        "view rows" a.Summary.vs_rows b.Summary.vs_rows)
    summary.Summary.views loaded.Summary.views;
  Alcotest.(check (list (pair string int)))
    "extra_tuples survives" summary.Summary.extra_tuples
    loaded.Summary.extra_tuples;
  (* old-format files (relations only) still load, with the new fields
     empty *)
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let relations_only =
    String.split_on_char '\n' text
    |> List.to_seq
    |> Seq.take_while (fun line ->
           not
             (String.length line >= 5
             && (String.sub line 0 5 = "view " || String.sub line 0 5 = "extra")))
    |> List.of_seq |> String.concat "\n"
  in
  let oc = open_out path in
  output_string oc relations_only;
  close_out oc;
  let old = Summary.load path toy_schema in
  Sys.remove path;
  Alcotest.(check int) "old format: relations intact"
    (List.length summary.Summary.relations)
    (List.length old.Summary.relations);
  Alcotest.(check int) "old format: no views" 0
    (List.length old.Summary.views);
  Alcotest.(check int) "old format: no extras" 0
    (List.length old.Summary.extra_tuples)

(* a file with neither a block nor a digest trailer is no summary at
   all; a saved empty summary (trailer only) still loads empty *)
let test_summary_load_rejects_garbage () =
  let path = Filename.temp_file "hydra" ".summary" in
  let load_text text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    match Summary.load path toy_schema with
    | s -> Ok (List.length s.Summary.relations)
    | exception Summary.Corrupt c -> Error c.Summary.sum_line
  in
  let res = Alcotest.(result int int) in
  Alcotest.(check res) "garbage" (Error 0) (load_text "garbage");
  Alcotest.(check res) "empty file" (Error 0) (load_text "");
  Alcotest.(check res) "trailer only" (Ok 0)
    (load_text (Hydra_durable.Durable_io.digest_trailer ""));
  Sys.remove path

(* ---- viewgraph ---- *)

let test_viewgraph_cliques () =
  (* chain a-b-c-d plus cc {a,b}, {b,c}, {c,d}: already chordal *)
  let nodes = [ "a"; "b"; "c"; "d" ] in
  let g = Viewgraph.of_ccs nodes [ [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "d" ] ] in
  let chordal, order = Viewgraph.chordal_completion g in
  Alcotest.(check bool) "perfect elimination" true
    (Viewgraph.is_perfect_elimination chordal order);
  let cliques = Viewgraph.maximal_cliques chordal order in
  Alcotest.(check int) "three cliques" 3 (List.length cliques);
  let ordered = Viewgraph.order_subviews chordal cliques in
  (* every prefix satisfies the separator condition *)
  let rec check_prefix visited = function
    | [] -> ()
    | s :: rest ->
        Alcotest.(check bool) "separator condition" true
          (Viewgraph.separator_condition chordal visited s);
        check_prefix (visited @ s) rest
  in
  (match ordered with
  | first :: rest -> check_prefix first rest
  | [] -> Alcotest.fail "no cliques");
  (* a 4-cycle needs a fill edge: 2 triangles, not 4 edges *)
  let g4 = Viewgraph.of_ccs nodes [ [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "d" ]; [ "d"; "a" ] ] in
  let chordal4, order4 = Viewgraph.chordal_completion g4 in
  Alcotest.(check bool) "cycle completion is chordal" true
    (Viewgraph.is_perfect_elimination chordal4 order4);
  let cliques4 = Viewgraph.maximal_cliques chordal4 order4 in
  Alcotest.(check int) "two triangles" 2 (List.length cliques4);
  List.iter
    (fun c -> Alcotest.(check int) "triangle size" 3 (List.length c))
    cliques4

(* ---- align and merge (Figure 8 flavour) ---- *)

let sol attrs rows =
  {
    Solution.attrs = Array.of_list attrs;
    rows =
      List.map
        (fun (ivs, c) -> { Solution.box = Array.of_list ivs; count = c })
        rows;
  }

let test_align_merge_figure8 () =
  (* solutions over (A,B) and (A,C) with matching marginals on A *)
  let ab =
    sol [ "A"; "B" ]
      [
        ([ iv 0 20; iv 0 10 ], 20000);
        ([ iv 20 40; iv 0 10 ], 25000);
        ([ iv 40 60; iv 10 20 ], 30000);
      ]
  in
  let ac =
    sol [ "A"; "C" ]
      [
        ([ iv 0 20; iv 0 5 ], 5000);
        ([ iv 0 20; iv 5 9 ], 15000);
        ([ iv 20 40; iv 0 5 ], 25000);
        ([ iv 40 60; iv 5 9 ], 10000);
        ([ iv 40 60; iv 0 5 ], 20000);
      ]
  in
  let merged = Align.merge_pair ab ac in
  Alcotest.(check (list string))
    "merged attributes" [ "A"; "B"; "C" ]
    (List.sort compare (Array.to_list merged.Solution.attrs));
  Alcotest.(check int) "total preserved" 75000 (Solution.total merged);
  (* marginals preserved: total with A in [0,20) stays 20000 *)
  let adim = Solution.dim_of merged "A" in
  let total_a0 =
    List.fold_left
      (fun acc (r : Solution.row) ->
        if r.Solution.box.(adim).Interval.lo = 0 then acc + r.Solution.count
        else acc)
      0 merged.Solution.rows
  in
  Alcotest.(check int) "A-marginal preserved" 20000 total_a0;
  (* row splitting: [0,20) had 1 row in ab, 2 in ac -> 2 aligned rows *)
  Alcotest.(check bool) "split occurred" true
    (List.length merged.Solution.rows >= 5)

let test_align_mismatch_detected () =
  let ab = sol [ "A"; "B" ] [ ([ iv 0 20; iv 0 10 ], 100) ] in
  let ac = sol [ "A"; "C" ] [ ([ iv 0 20; iv 0 5 ], 99) ] in
  match Align.merge_pair ab ac with
  | exception Align.Align_error _ -> ()
  | _ -> Alcotest.fail "expected Align_error on inconsistent marginals"

(* ---- refinement and clique-tree machinery ---- *)

let test_refine_along () =
  let attrs = [| "x"; "y" |] in
  let domains = [| iv 0 20; iv 0 20 |] in
  let constraints =
    [| Predicate.atom "x" (iv 5 15); Predicate.true_ |]
  in
  let part = Region.optimal_partition ~attrs ~domains constraints in
  Alcotest.(check int) "two regions before" 2 (Region.num_regions part);
  let refined = Region.refine_along part 1 [ 10 ] in
  (* each region splits into the y<10 and y>=10 slabs *)
  Alcotest.(check int) "four regions after" 4 (Region.num_regions refined);
  Alcotest.(check bool) "still a partition" true (Region.is_partition refined);
  (* every region now occupies a single atomic slab along y *)
  Array.iter
    (fun (r : Region.region) ->
      let slabs =
        List.map (fun (b : Box.t) -> (b.(1).Interval.lo, b.(1).Interval.hi)) r.Region.boxes
        |> List.sort_uniq compare
      in
      Alcotest.(check int) "uniform slab" 1 (List.length slabs))
    refined.Region.regions;
  (* refining at points outside every box is a no-op *)
  let same = Region.refine_along part 1 [ 0; 20; 25 ] in
  Alcotest.(check int) "no-op cuts" 2 (Region.num_regions same)

let test_clique_tree_rip () =
  (* running intersection property: each node's intersection with the
     union of all earlier cliques equals its separator *)
  let cliques =
    [ [ "a"; "b"; "c" ]; [ "b"; "c"; "d" ]; [ "c"; "e" ]; [ "f" ] ]
  in
  let tree = Viewgraph.clique_tree cliques in
  Alcotest.(check int) "four nodes" 4 (List.length tree);
  let seen = ref [] in
  List.iteri
    (fun i (n : Viewgraph.tree_node) ->
      (match n.Viewgraph.parent with
      | Some p -> Alcotest.(check bool) "parent precedes" true (p < i)
      | None -> ());
      let inter =
        List.filter (fun a -> List.mem a !seen) n.Viewgraph.clique
      in
      Alcotest.(check (list string))
        "separator = intersection with prefix"
        (List.sort compare n.Viewgraph.separator)
        (List.sort compare inter);
      seen := !seen @ n.Viewgraph.clique)
    tree

let test_row_source () =
  let result = Pipeline.regenerate toy_schema toy_ccs in
  let summary = result.Pipeline.summary in
  let rs = Summary.relation summary "S" in
  let supply = Tuple_gen.row_source rs in
  let table = Tuple_gen.materialize_relation toy_schema rs in
  for r = 0 to rs.Summary.rs_total - 1 do
    let generated = supply r in
    let stored = Table.row table r in
    if generated <> stored then
      Alcotest.failf "row %d: generated tuple differs from stored" r
  done;
  (* random access equals sequential access *)
  let supply2 = Tuple_gen.row_source rs in
  let mid = rs.Summary.rs_total / 2 in
  Alcotest.(check bool) "random access" true (supply2 mid = Table.row table mid)

let test_instantiation_policy () =
  let low = Pipeline.regenerate ~policy:`Low_corner toy_schema toy_ccs in
  let mid = Pipeline.regenerate ~policy:`Midpoint toy_schema toy_ccs in
  (* both satisfy the CCs: any point of a region carries its label *)
  List.iter
    (fun (result, name) ->
      let db = Tuple_gen.materialize result.Pipeline.summary in
      let v = Validate.check db toy_ccs in
      Alcotest.(check bool) (name ^ " satisfies CCs") true
        (v.Validate.max_abs_error < 0.01))
    [ (low, "low-corner"); (mid, "midpoint") ];
  (* the instantiated values differ *)
  let values result =
    List.concat_map
      (fun (rs : Summary.relation_summary) ->
        Array.to_list rs.Summary.rs_rows |> List.map fst |> List.map Array.to_list)
      result.Pipeline.summary.Summary.relations
  in
  Alcotest.(check bool) "policies place values differently" true
    (values low <> values mid)

(* align-and-merge property: build a random joint distribution over a
   small (A,B,C) grid, project it onto (A,B) and (A,C) sub-view solutions
   (consistent by construction), merge, and check totals and marginals *)
let prop_align_merge =
  let gen =
    let open QCheck.Gen in
    (* counts per (a,b,c) cell of a 3x3x3 grid of unit boxes *)
    array_size (return 27) (int_range 0 20)
  in
  QCheck.Test.make ~name:"align/merge preserves totals and marginals"
    ~count:150 (QCheck.make gen) (fun joint ->
      let cell a b c = joint.((a * 9) + (b * 3) + c) in
      let box3 dims = Array.of_list (List.map (fun v -> iv v (v + 1)) dims) in
      let rows_of f attrs =
        let rows = ref [] in
        for x = 0 to 2 do
          for y = 0 to 2 do
            let count = f x y in
            if count > 0 then
              rows := { Solution.box = box3 [ x; y ]; count } :: !rows
          done
        done;
        { Solution.attrs; rows = List.rev !rows }
      in
      let ab =
        rows_of (fun a b -> cell a b 0 + cell a b 1 + cell a b 2) [| "A"; "B" |]
      in
      let ac =
        rows_of (fun a c -> cell a 0 c + cell a 1 c + cell a 2 c) [| "A"; "C" |]
      in
      QCheck.assume (ab.Solution.rows <> [] && ac.Solution.rows <> []);
      match Align.merge_pair ab ac with
      | merged ->
          let total = Array.fold_left ( + ) 0 joint in
          let dim name = Solution.dim_of merged name in
          let marginal d v =
            List.fold_left
              (fun acc (r : Solution.row) ->
                if r.Solution.box.(d).Interval.lo = v then
                  acc + r.Solution.count
                else acc)
              0 merged.Solution.rows
          in
          Solution.total merged = total
          && List.for_all
               (fun a ->
                 marginal (dim "A") a
                 = Array.fold_left ( + ) 0
                     (Array.init 9 (fun i -> cell a (i / 3) (i mod 3))))
               [ 0; 1; 2 ]
          && List.for_all
               (fun b ->
                 marginal (dim "B") b
                 = Array.fold_left ( + ) 0
                     (Array.init 9 (fun i -> cell (i / 3) b (i mod 3))))
               [ 0; 1; 2 ]
          && List.for_all
               (fun c ->
                 marginal (dim "C") c
                 = Array.fold_left ( + ) 0
                     (Array.init 9 (fun i -> cell (i / 3) (i mod 3) c)))
               [ 0; 1; 2 ]
      | exception Align.Align_error _ -> false)

(* ---- property tests ---- *)

(* random DNF constraints over a small 2-D domain; check partition
   invariants and optimality bound *)
let random_constraints_gen =
  let open QCheck.Gen in
  let atom_gen attr =
    let* lo = int_range 0 19 in
    let* w = int_range 1 10 in
    return (attr, iv lo (min 20 (lo + w)))
  in
  let conjunct_gen =
    let* n = int_range 1 2 in
    let* atoms =
      list_size (return n) (oneof [ atom_gen "x"; atom_gen "y" ])
    in
    return atoms
  in
  let pred_gen =
    let* n = int_range 1 2 in
    let* cs = list_size (return n) conjunct_gen in
    return (Predicate.of_conjuncts cs)
  in
  let* m = int_range 1 4 in
  list_size (return m) pred_gen

let prop_region_invariants =
  QCheck.Test.make ~name:"region partition invariants" ~count:200
    (QCheck.make random_constraints_gen) (fun preds ->
      let attrs = [| "x"; "y" |] in
      let domains = [| iv 0 20; iv 0 20 |] in
      let constraints = Array.of_list (Predicate.true_ :: preds) in
      let part = Region.optimal_partition ~attrs ~domains constraints in
      Region.is_partition part
      && Region.labels_distinct part
      && Region.label_homogeneous part constraints
      (* optimality: regions <= number of distinct label vectors over the
         whole domain, computed by brute force *)
      &&
      let seen = Hashtbl.create 64 in
      for x = 0 to 19 do
        for y = 0 to 19 do
          let lookup a = if a = "x" then x else y in
          let label =
            Array.map (fun p -> Predicate.eval lookup p) constraints
          in
          Hashtbl.replace seen label ()
        done
      done;
      Region.num_regions part = Hashtbl.length seen)

(* random view-graphs: chordal completion must yield a perfect elimination
   order, maximal cliques must cover every edge, and the clique tree must
   satisfy the running intersection property *)
let random_graph_gen =
  let open QCheck.Gen in
  let* n = int_range 2 8 in
  let nodes = List.init n (fun i -> Printf.sprintf "v%d" i) in
  let* nsets = int_range 1 6 in
  let* sets =
    list_size (return nsets)
      (let* k = int_range 1 (min 4 n) in
       let* idxs = list_size (return k) (int_range 0 (n - 1)) in
       return (List.sort_uniq compare (List.map (List.nth nodes) idxs)))
  in
  return (nodes, sets)

let prop_region_3d =
  (* three dimensions with random conjuncts: validity + optimality against
     brute force over the 8000-point domain *)
  let gen =
    let open QCheck.Gen in
    let atom attr =
      let* lo = int_range 0 18 in
      let* w = int_range 1 8 in
      return (attr, Interval.make lo (min 20 (lo + w)))
    in
    let conjunct =
      let* k = int_range 1 3 in
      list_size (return k) (oneof [ atom "x"; atom "y"; atom "z" ])
    in
    let pred =
      let* n = int_range 1 2 in
      let* cs = list_size (return n) conjunct in
      return (Predicate.of_conjuncts cs)
    in
    let* m = int_range 1 3 in
    list_size (return m) pred
  in
  QCheck.Test.make ~name:"region partition invariants in 3-D" ~count:60
    (QCheck.make gen) (fun preds ->
      let attrs = [| "x"; "y"; "z" |] in
      let domains = [| Interval.make 0 20; Interval.make 0 20; Interval.make 0 20 |] in
      let constraints = Array.of_list (Predicate.true_ :: preds) in
      let part = Region.optimal_partition ~attrs ~domains constraints in
      let seen = Hashtbl.create 64 in
      for x = 0 to 19 do
        for y = 0 to 19 do
          for z = 0 to 19 do
            let lookup a = if a = "x" then x else if a = "y" then y else z in
            let label =
              Array.map (fun p -> Predicate.eval lookup p) constraints
            in
            Hashtbl.replace seen label ()
          done
        done
      done;
      Region.is_partition part
      && Region.labels_distinct part
      && Region.label_homogeneous part constraints
      && Region.num_regions part = Hashtbl.length seen)

let prop_chordal_completion =
  QCheck.Test.make ~name:"chordal completion + cliques + RIP" ~count:200
    (QCheck.make random_graph_gen) (fun (nodes, sets) ->
      let g = Viewgraph.of_ccs nodes sets in
      let chordal, order = Viewgraph.chordal_completion g in
      let peo = Viewgraph.is_perfect_elimination chordal order in
      let cliques = Viewgraph.maximal_cliques chordal order in
      (* every original co-occurrence pair is inside some clique *)
      let covered =
        List.for_all
          (fun set ->
            List.for_all
              (fun a ->
                List.for_all
                  (fun b ->
                    a = b
                    || List.exists
                         (fun c -> List.mem a c && List.mem b c)
                         cliques)
                  set)
              set)
          sets
      in
      (* clique-tree RIP: intersection with the prefix = separator *)
      let tree = Viewgraph.clique_tree cliques in
      let rip =
        let seen = ref [] in
        List.for_all
          (fun (node : Viewgraph.tree_node) ->
            let inter =
              List.filter (fun a -> List.mem a !seen) node.Viewgraph.clique
            in
            seen := !seen @ node.Viewgraph.clique;
            List.sort compare inter
            = List.sort compare node.Viewgraph.separator)
          tree
      in
      peo && covered && rip)

let prop_region_at_most_grid =
  QCheck.Test.make ~name:"regions never exceed grid cells" ~count:200
    (QCheck.make random_constraints_gen) (fun preds ->
      let attrs = [| "x"; "y" |] in
      let domains = [| iv 0 20; iv 0 20 |] in
      let constraints = Array.of_list preds in
      let part = Region.optimal_partition ~attrs ~domains constraints in
      let grid_cells = Grid.cell_count ~attrs ~domains constraints in
      Hydra_arith.Bigint.to_int_exn grid_cells >= Region.num_regions part)

let suite =
  [
    ( "region",
      [
        Alcotest.test_case "Person regions (Fig. 3b)" `Quick test_person_regions;
        Alcotest.test_case "Person grid (Fig. 3a)" `Quick test_person_grid;
        Alcotest.test_case "grid blow-up detection" `Quick test_grid_too_large;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_region_invariants; prop_region_at_most_grid;
            prop_region_3d ] );
    ( "viewgraph",
      [
        Alcotest.test_case "cliques and ordering" `Quick test_viewgraph_cliques;
        Alcotest.test_case "clique tree RIP" `Quick test_clique_tree_rip;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_chordal_completion ] );
    ( "refinement",
      [ Alcotest.test_case "refine_along" `Quick test_refine_along ] );
    ( "tuple_gen",
      [
        Alcotest.test_case "row_source = stored rows" `Quick test_row_source;
        Alcotest.test_case "instantiation policies" `Quick
          test_instantiation_policy;
      ] );
    ( "align",
      [
        Alcotest.test_case "merge (Fig. 8)" `Quick test_align_merge_figure8;
        Alcotest.test_case "mismatch detected" `Quick test_align_mismatch_detected;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_align_merge ] );
    ( "pipeline",
      [
        Alcotest.test_case "toy preprocess (Fig. 1)" `Quick test_toy_preprocess;
        Alcotest.test_case "toy end-to-end (Fig. 1)" `Quick test_toy_pipeline;
        Alcotest.test_case "dynamic = static" `Quick test_toy_dynamic_matches_static;
        Alcotest.test_case "summary roundtrip" `Quick test_toy_summary_roundtrip;
        Alcotest.test_case "load inverts save (views, extras)" `Quick
          test_summary_load_is_exact_inverse;
        Alcotest.test_case "load rejects a file without a summary" `Quick
          test_summary_load_rejects_garbage;
        Alcotest.test_case "validate helpers" `Quick test_validate_helpers;
      ] );
  ]

let () = Alcotest.run "hydra-core" suite
