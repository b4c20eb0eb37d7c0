(* Differential battery for the float-first solve path (PR: float-first
   simplex with exact verification).

   The headline contract: Float_first mode is an invisible optimization.
   For every input both modes report the same status and the same exact
   solution vector, and, when no repair ran, the same terminal basis
   (the path identity Pivot.Make states). A qcheck battery checks that
   on random CC-shaped systems (with and without objectives); a pinned
   adversarial objective forces the float shadow onto a suboptimal
   terminal basis and asserts the repair rung fires, and warm-started
   verification is exercised both directly and end-to-end through the
   cache's structural-fingerprint hints, including hints that drifted
   right-hand sides leave primal infeasible (the dual repair). *)

module Rat = Hydra_arith.Rat
module Bigint = Hydra_arith.Bigint
module Lp = Hydra_lp.Lp
module Simplex = Hydra_lp.Simplex
module Int_feasible = Hydra_lp.Int_feasible
module Obs = Hydra_obs.Obs
module Cache = Hydra_cache.Cache
module Pipeline = Hydra_core.Pipeline
module Cc_parser = Hydra_workload.Cc_parser

(* counters are registered by name: these are the same cells the library
   increments *)
let m_repairs = Obs.counter "simplex.verify_repairs"
let m_float_pivots = Obs.counter "simplex.float_pivots"
let m_iterations = Obs.counter "simplex.iterations"
let m_warm_hit = Obs.counter "cache.warm_hit"
let m_dual_pivots = Obs.counter "simplex.dual_pivots"

let cases =
  match Option.bind (Sys.getenv_opt "HYDRA_SOLVE_CASES") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 100

(* ---- Rat.of_float_opt (satellite: total float conversion) ---- *)

let quarter = Rat.div Rat.one (Rat.of_int 4)

let test_of_float_opt () =
  (match Rat.of_float_opt 0.25 with
  | Some r -> Alcotest.(check bool) "0.25 = 1/4" true (Rat.equal r quarter)
  | None -> Alcotest.fail "0.25 must convert");
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%h is rejected" f)
        true
        (Rat.of_float_opt f = None))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* total variant agrees with the raising one on finite input *)
  List.iter
    (fun f ->
      match Rat.of_float_opt f with
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "%h agrees with of_float" f)
            true
            (Rat.equal r (Rat.of_float f))
      | None -> Alcotest.failf "finite %h must convert" f)
    [ 0.0; 1.0; -1.5; 3.14159; 1e-12; -7.25e10; ldexp 1.0 (-40) ];
  match Rat.of_float Float.nan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_float nan must raise Invalid_argument"

(* ---- random CC-shaped systems (test_par's oracle shape) ---- *)

let lp_case_gen =
  let open QCheck.Gen in
  let* nvars = int_range 1 5 in
  let* total = int_range 0 8 in
  let* nextra = int_range 0 3 in
  let* extras =
    list_size (return nextra)
      (pair (list_size (return nvars) bool) (int_range 0 10))
  in
  (* sparse objective with small rational coefficients p/q *)
  let* obj =
    list_size (int_range 0 nvars)
      (triple (int_range 0 (nvars - 1)) (int_range (-3) 3) (int_range 1 4))
  in
  return (nvars, total, extras, obj)

let build_lp (nvars, total, extras, _obj) =
  let lp = Lp.create () in
  let first = Lp.add_vars lp nvars in
  let all = List.init nvars (fun i -> first + i) in
  Lp.add_eq_count lp all total;
  List.iter
    (fun (mask, k) ->
      let subset = List.filteri (fun i _ -> List.nth mask i) all in
      if subset <> [] then Lp.add_eq_count lp subset k)
    extras;
  lp

let objective_of (_, _, _, obj) =
  match obj with
  | [] -> None
  | terms ->
      Some
        (List.map
           (fun (v, p, q) -> (v, Rat.div (Rat.of_int p) (Rat.of_int q)))
           terms)

let status_equal a b =
  match (a, b) with
  | Simplex.Feasible x, Simplex.Feasible y ->
      Array.length x = Array.length y
      && Array.for_all2 Rat.equal x y
  | Simplex.Infeasible, Simplex.Infeasible -> true
  | Simplex.Unbounded, Simplex.Unbounded -> true
  | Simplex.Timeout, Simplex.Timeout -> true
  | _ -> false

let pp_status = function
  | Simplex.Feasible x ->
      "Feasible ["
      ^ String.concat " " (Array.to_list (Array.map Rat.to_string x))
      ^ "]"
  | Simplex.Infeasible -> "Infeasible"
  | Simplex.Unbounded -> "Unbounded"
  | Simplex.Timeout -> "Timeout"

(* float-first ≡ exact, at the Simplex layer, objectives included; when
   exact verification made no repair, the float path is the exact path,
   so the terminal bases agree too *)
let prop_simplex_differential =
  QCheck.Test.make ~name:"Simplex Float_first = Exact"
    ~count:cases (QCheck.make lp_case_gen) (fun case ->
      Obs.set_enabled true;
      let objective = objective_of case in
      let exact_basis = ref None and ff_basis = ref None in
      let exact =
        Simplex.solve ?objective ~basis_out:exact_basis (build_lp case)
      in
      let repairs0 = Obs.counter_value m_repairs in
      let ff =
        Simplex.solve ~mode:Simplex.Float_first ?objective ~basis_out:ff_basis
          (build_lp case)
      in
      if not (status_equal exact ff) then
        QCheck.Test.fail_reportf "exact %s <> float-first %s" (pp_status exact)
          (pp_status ff);
      let pp_basis = function
        | None -> "none"
        | Some b ->
            String.concat " " (Array.to_list (Array.map string_of_int b))
      in
      if Obs.counter_value m_repairs = repairs0 && !exact_basis <> !ff_basis
      then
        QCheck.Test.fail_reportf
          "terminal bases differ without a repair: %s <> %s"
          (pp_basis !exact_basis) (pp_basis !ff_basis);
      true)

(* float-first ≡ exact through the branch-and-bound layer *)
let prop_int_feasible_differential =
  QCheck.Test.make ~name:"Int_feasible Float_first = Exact" ~count:cases
    (QCheck.make lp_case_gen) (fun case ->
      let run mode = Int_feasible.solve ~mode (build_lp case) in
      (match (run Simplex.Exact, run Simplex.Float_first) with
      | Int_feasible.Solution x, Int_feasible.Solution y ->
          if
            not
              (Array.length x = Array.length y
              && Array.for_all2 Bigint.equal x y)
          then
            QCheck.Test.fail_reportf "solutions differ: [%s] vs [%s]"
              (String.concat " " (Array.to_list (Array.map Bigint.to_string x)))
              (String.concat " " (Array.to_list (Array.map Bigint.to_string y)))
      | Int_feasible.Infeasible, Int_feasible.Infeasible -> ()
      | Int_feasible.Gave_up, Int_feasible.Gave_up
      | Int_feasible.Timeout, Int_feasible.Timeout ->
          ()
      | _ -> QCheck.Test.fail_report "verdicts differ between modes");
      true)

(* under every iteration budget up to past the cold exact run's own
   count, both modes give the same verdict: a float run that times out
   hands over to the exact run under the same budget and count *)
let prop_budget_verdicts =
  QCheck.Test.make ~name:"budget verdicts agree across modes" ~count:cases
    (QCheck.make lp_case_gen) (fun case ->
      Obs.set_enabled true;
      let objective = objective_of case in
      let solve ?max_iters mode =
        Simplex.solve ~mode ?objective ?max_iters (build_lp case)
      in
      let iters0 = Obs.counter_value m_iterations in
      ignore (solve Simplex.Exact);
      let cold = Obs.counter_value m_iterations - iters0 in
      for k = 0 to cold + 2 do
        let exact = solve ~max_iters:k Simplex.Exact
        and ff = solve ~max_iters:k Simplex.Float_first in
        if not (status_equal exact ff) then
          QCheck.Test.fail_reportf "max_iters %d: exact %s <> float-first %s"
            k (pp_status exact) (pp_status ff)
      done;
      true)

(* ---- pinned adversarial case: repair fires, result still exact ---- *)

(* Objective (1 + 2^-50)*x0 + x1 over x0 + x1 = 1. The float shadow
   converts the cost 1 + 2^-50 to double, which rounds to exactly 1.0,
   so phase II prices x1 at a computed reduced cost of exactly 0.0 —
   confidently "zero" under any error bound — while the true reduced
   cost is -2^-50. The shadow terminates on the suboptimal basis {x0};
   exact verification finds the negative reduced cost and repairs with
   one exact pivot to the true optimum (0, 1) — the same answer exact
   mode computes. *)
let test_adversarial_repair () =
  Obs.set_enabled true;
  let eps = Rat.of_float (ldexp 1.0 (-50)) in
  let mk () =
    let lp = Lp.create () in
    let x0 = Lp.add_var lp () in
    let x1 = Lp.add_var lp () in
    Lp.add_eq lp [ (x0, Rat.one); (x1, Rat.one) ] Rat.one;
    (lp, [ (x0, Rat.add Rat.one eps); (x1, Rat.one) ])
  in
  let lp, objective = mk () in
  let exact = Simplex.solve ~objective lp in
  (match exact with
  | Simplex.Feasible x ->
      Alcotest.(check bool) "exact optimum is (0, 1)" true
        (Rat.is_zero x.(0) && Rat.equal x.(1) Rat.one)
  | s -> Alcotest.failf "exact mode: unexpected %s" (pp_status s));
  let repairs0 = Obs.counter_value m_repairs in
  let floats0 = Obs.counter_value m_float_pivots in
  let lp, objective = mk () in
  let ff = Simplex.solve ~mode:Simplex.Float_first ~objective lp in
  if not (status_equal exact ff) then
    Alcotest.failf "float-first %s <> exact %s" (pp_status ff)
      (pp_status exact);
  Alcotest.(check bool) "float shadow actually pivoted" true
    (Obs.counter_value m_float_pivots > floats0);
  Alcotest.(check bool) "exact verification repaired the basis" true
    (Obs.counter_value m_repairs > repairs0)

(* the guard band must also catch the mirror image: a reduced cost that
   is decisively negative may not be classified as zero *)
let test_decisive_costs_not_repaired () =
  Obs.set_enabled true;
  let lp = Lp.create () in
  let x0 = Lp.add_var lp () in
  let x1 = Lp.add_var lp () in
  Lp.add_eq lp [ (x0, Rat.one); (x1, Rat.one) ] Rat.one;
  let objective = [ (x0, Rat.of_int 2); (x1, Rat.one) ] in
  let repairs0 = Obs.counter_value m_repairs in
  (match Simplex.solve ~mode:Simplex.Float_first ~objective lp with
  | Simplex.Feasible x ->
      Alcotest.(check bool) "optimum is (0, 1)" true
        (Rat.is_zero x.(0) && Rat.equal x.(1) Rat.one)
  | s -> Alcotest.failf "unexpected %s" (pp_status s));
  Alcotest.(check int) "no repair needed" repairs0
    (Obs.counter_value m_repairs)

(* ---- warm-started verification ---- *)

(* A feasible LP built around a nonnegative integer point: each row is
   (coefficients, relation, rhs drift), with rhs = A.point, plus the
   drift when [drifted]. A drifted rhs may change sign, which flips the
   row in the tableau; the old basis is then still well-formed. *)
let drift_case_gen =
  let open QCheck.Gen in
  let* nvars = int_range 2 6 in
  let* point = list_size (return nvars) (int_range 0 6) in
  let* rows =
    list_size (int_range 1 5)
      (triple
         (list_size (return nvars) (int_range 0 2))
         (oneofl [ Lp.Eq; Lp.Le; Lp.Ge ])
         (int_range (-4) 4))
  in
  let* obj =
    opt
      (list_size (int_range 1 nvars)
         (pair (int_range 0 (nvars - 1)) (int_range (-2) 3)))
  in
  return (point, rows, obj)

let build_drift_lp ~drifted (point, rows, _) =
  let lp = Lp.create () in
  let first = Lp.add_vars lp (List.length point) in
  List.iter
    (fun (coefs, rel, delta) ->
      let rhs = List.fold_left2 (fun acc c x -> acc + (c * x)) 0 coefs point in
      Lp.add_constraint lp
        (List.mapi (fun i c -> (first + i, Rat.of_int c)) coefs)
        rel
        (Rat.of_int (if drifted then rhs + delta else rhs)))
    rows;
  lp

let drift_objective (_, _, obj) =
  Option.map (List.map (fun (v, c) -> (v, Rat.of_int c))) obj

let objective_value obj x =
  List.fold_left (fun acc (v, c) -> Rat.add acc (Rat.mul c x.(v))) Rat.zero obj

(* the old terminal basis, hinted into the drifted LP, gives the
   hint-free verdict; feasible answers satisfy the drifted LP exactly
   and, under an objective, reach the same optimum *)
let prop_drifted_hint =
  QCheck.Test.make ~name:"drifted warm hint = hint-free solve" ~count:cases
    (QCheck.make drift_case_gen) (fun case ->
      let objective = drift_objective case in
      let old_basis = ref None in
      ignore
        (Simplex.solve ~mode:Simplex.Float_first ?objective
           ~basis_out:old_basis
           (build_drift_lp ~drifted:false case));
      match !old_basis with
      | None -> true (* unbounded before the drift: no basis to hint *)
      | Some hint ->
          let lp = build_drift_lp ~drifted:true case in
          let cold = Simplex.solve ~mode:Simplex.Float_first ?objective lp in
          let warm =
            Simplex.solve ~mode:Simplex.Float_first ?objective
              ~warm_basis:hint lp
          in
          (match (cold, warm) with
          | Simplex.Feasible c, Simplex.Feasible w ->
              if not (Lp.check lp w) then
                QCheck.Test.fail_reportf "warm %s violates the LP"
                  (pp_status warm);
              Option.iter
                (fun obj ->
                  if
                    not
                      (Rat.equal (objective_value obj c)
                         (objective_value obj w))
                  then
                    QCheck.Test.fail_reportf "optimum: cold %s <> warm %s"
                      (pp_status cold) (pp_status warm))
                objective
          | Simplex.Infeasible, Simplex.Infeasible
          | Simplex.Unbounded, Simplex.Unbounded ->
              ()
          | _ ->
              QCheck.Test.fail_reportf "cold %s <> warm %s" (pp_status cold)
                (pp_status warm));
          true)

(* The exact instance of the dual phase: the float warm run must abort,
   so the hint itself goes to verification. The overlap system (four
   regions, three count rows) is drifted so that both vertices of the
   base LP are primal infeasible; two separate rows pin c = 10^18 and
   d = 5 * 10^8, and the float dual phase, which checks the sign of
   every basic value, cannot tell d from zero against c's magnitude
   (Unsure), so it aborts before its first pivot. *)
let test_exact_dual_repair () =
  Obs.set_enabled true;
  let mk a1 a2 =
    let lp = Lp.create () in
    let v = Lp.add_vars lp 6 in
    let n, p, o, q, c, d = (v, v + 1, v + 2, v + 3, v + 4, v + 5) in
    Lp.add_eq_count lp [ n; p; o; q ] 70;
    Lp.add_eq_count lp [ p; o ] a1;
    Lp.add_eq_count lp [ o; q ] a2;
    Lp.add_eq_count lp [ c ] 1_000_000_000_000_000_000;
    Lp.add_eq_count lp [ d ] 500_000_000;
    lp
  in
  let hint = ref None in
  ignore (Simplex.solve ~mode:Simplex.Float_first ~basis_out:hint (mk 40 60));
  let hint =
    match !hint with Some b -> b | None -> Alcotest.fail "no base basis"
  in
  let repairs0 = Obs.counter_value m_repairs in
  let dual0 = Obs.counter_value m_dual_pivots in
  let floats0 = Obs.counter_value m_float_pivots in
  let lp = mk 30 10 in
  (match Simplex.solve ~mode:Simplex.Float_first ~warm_basis:hint lp with
  | Simplex.Feasible x ->
      Alcotest.(check bool) "repaired solution is feasible" true
        (Lp.check lp x)
  | s -> Alcotest.failf "warm: unexpected %s" (pp_status s));
  Alcotest.(check int) "the float warm run made no pivot" floats0
    (Obs.counter_value m_float_pivots);
  Alcotest.(check bool) "exact dual pivots ran" true
    (Obs.counter_value m_dual_pivots > dual0);
  Alcotest.(check int) "one verify repair" (repairs0 + 1)
    (Obs.counter_value m_repairs)

(* the property is only meaningful if some hints needed the dual phase *)
let test_drifted_hints () =
  Obs.set_enabled true;
  let dual0 = Obs.counter_value m_dual_pivots in
  QCheck.Test.check_exn prop_drifted_hint;
  Alcotest.(check bool) "some drifted hint took dual pivots" true
    (Obs.counter_value m_dual_pivots > dual0)

let test_warm_basis_direct () =
  Obs.set_enabled true;
  let mk () =
    let lp = Lp.create () in
    let first = Lp.add_vars lp 3 in
    Lp.add_eq_count lp [ first; first + 1; first + 2 ] 7;
    Lp.add_eq_count lp [ first; first + 1 ] 4;
    lp
  in
  let captured = ref None in
  let cold =
    Simplex.solve ~mode:Simplex.Float_first ~basis_out:captured (mk ())
  in
  let basis =
    match !captured with
    | Some b -> b
    | None -> Alcotest.fail "no terminal basis captured"
  in
  (* a valid warm basis verifies to the same exact solution *)
  let warm =
    Simplex.solve ~mode:Simplex.Float_first ~warm_basis:basis (mk ())
  in
  if not (status_equal cold warm) then
    Alcotest.failf "warm %s <> cold %s" (pp_status warm) (pp_status cold);
  (* garbage warm bases are silently discarded, never wrong answers *)
  List.iter
    (fun bad ->
      let r = Simplex.solve ~mode:Simplex.Float_first ~warm_basis:bad (mk ()) in
      if not (status_equal cold r) then
        Alcotest.failf "bad warm basis changed the answer: %s" (pp_status r))
    [ [| 999; 0 |]; [| 0 |]; [| 0; 0 |]; [| 0; 1; 2 |] ];
  (* exact mode ignores the hint: same answer and terminal basis as
     without one, with no verification and no float run *)
  let plain_basis = ref None and hinted_basis = ref None in
  let plain =
    Simplex.solve ~mode:Simplex.Exact ~basis_out:plain_basis (mk ())
  in
  let repairs0 = Obs.counter_value m_repairs in
  let floats0 = Obs.counter_value m_float_pivots in
  let hinted =
    Simplex.solve ~mode:Simplex.Exact ~warm_basis:basis
      ~basis_out:hinted_basis (mk ())
  in
  if not (status_equal plain hinted) then
    Alcotest.failf "exact with hint %s <> exact %s" (pp_status hinted)
      (pp_status plain);
  Alcotest.(check (option (array int)))
    "exact terminal basis ignores the hint" !plain_basis !hinted_basis;
  Alcotest.(check int) "no repair in exact mode" repairs0
    (Obs.counter_value m_repairs);
  Alcotest.(check int) "no float pivot in exact mode" floats0
    (Obs.counter_value m_float_pivots)

(* warm hints end-to-end: same workload shape, one CC total edited *)
let spec_base =
  {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 400;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
|}

(* identical structure; S's filter cardinality nudged by one tuple *)
let spec_nudged =
  {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 401;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
|}

let with_tmp_cache f =
  let d = Filename.temp_file "hydra_test_solve" "" in
  Sys.remove d;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists d then begin
        Array.iter
          (fun fn -> Sys.remove (Filename.concat d fn))
          (Sys.readdir d);
        Unix.rmdir d
      end)
    (fun () -> f (Cache.create ~dir:d))

let test_warm_hint_end_to_end () =
  Obs.set_enabled true;
  with_tmp_cache (fun cache ->
      let regen text =
        let spec = Cc_parser.parse text in
        Pipeline.regenerate ~cache ~solve_mode:Simplex.Float_first
          spec.Cc_parser.schema spec.Cc_parser.ccs
      in
      let all_exact (r : Pipeline.result) =
        List.for_all
          (fun (v : Pipeline.view_stats) ->
            match v.Pipeline.status with Pipeline.Exact -> true | _ -> false)
          r.Pipeline.views
      in
      let base = regen spec_base in
      Alcotest.(check bool) "base run all exact" true (all_exact base);
      (* the edited run misses on the exact fingerprint but warm-starts
         from the structural hint the base run stored *)
      let hits0 = Obs.counter_value m_warm_hit in
      let nudged = regen spec_nudged in
      Alcotest.(check bool) "nudged run all exact" true (all_exact nudged);
      Alcotest.(check bool) "warm hint was consumed" true
        (Obs.counter_value m_warm_hit > hits0))

(* Two overlapping ranges on S.A cut it into four regions under three
   count constraints, so S's LP has a choice of two vertices: the overlap
   [40,60) holds A1 + A2 - |S| rows, or A1 rows. The base counts
   (A1 = 400, A2 = 600) make both feasible; under the drifted ones
   (A1 = 300, A2 = 100, identical structure) the first puts -300 rows in
   the overlap and the second -200 in [60,80), so the hint is primal
   infeasible whichever vertex the base run ended on. *)
let spec_overlap a1 a2 =
  Printf.sprintf
    {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = %d;
cc |sigma(S.A in [40,80))(S)| = %d;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
|}
    a1 a2

let test_drifted_hint_end_to_end () =
  Obs.set_enabled true;
  with_tmp_cache (fun cache ->
      let regen text =
        let spec = Cc_parser.parse text in
        Pipeline.regenerate ~cache ~solve_mode:Simplex.Float_first
          spec.Cc_parser.schema spec.Cc_parser.ccs
      in
      let all_exact (r : Pipeline.result) =
        List.for_all
          (fun (v : Pipeline.view_stats) -> v.Pipeline.status = Pipeline.Exact)
          r.Pipeline.views
      in
      Alcotest.(check bool) "base run all exact" true
        (all_exact (regen (spec_overlap 400 600)));
      let hits0 = Obs.counter_value m_warm_hit in
      let dual0 = Obs.counter_value m_dual_pivots in
      let drifted = regen (spec_overlap 300 100) in
      Alcotest.(check bool) "drifted run all exact" true (all_exact drifted);
      Alcotest.(check bool) "warm hint was consumed" true
        (Obs.counter_value m_warm_hit > hits0);
      Alcotest.(check bool) "the dual phase repaired the hint" true
        (Obs.counter_value m_dual_pivots > dual0))

(* Hint files by name, with each one's inode and bytes. A rewrite goes
   through a temp file and a rename, so it gives the name a new inode. *)
let hint_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun name ->
         let path = Filename.concat dir name in
         let bytes = In_channel.with_open_bin path In_channel.input_all in
         let is_hint =
           match String.split_on_char '\n' bytes with
           | _ :: _ :: payload :: _ ->
               String.starts_with ~prefix:"hydra-warm " payload
           | _ -> false
         in
         if is_hint then Some (name, (Unix.stat path).Unix.st_ino, bytes)
         else None)

(* A warm re-run whose views end on their hints leaves every hint file
   as it was; a drifted run whose dual phase moved the basis replaces
   the hint it moved. *)
let test_unchanged_hint_not_rewritten () =
  Obs.set_enabled true;
  let regen cache text =
    let spec = Cc_parser.parse text in
    ignore
      (Pipeline.regenerate ~cache ~solve_mode:Simplex.Float_first
         spec.Cc_parser.schema spec.Cc_parser.ccs)
  in
  with_tmp_cache (fun cache ->
      regen cache spec_base;
      let before = hint_files (Cache.dir cache) in
      Alcotest.(check bool) "the base run stored hints" true (before <> []);
      let hits0 = Obs.counter_value m_warm_hit in
      regen cache spec_nudged;
      Alcotest.(check bool) "the nudged run consumed a hint" true
        (Obs.counter_value m_warm_hit > hits0);
      Alcotest.(check (list (pair string int)))
        "every hint keeps its inode"
        (List.map (fun (n, ino, _) -> (n, ino)) before)
        (List.map (fun (n, ino, _) -> (n, ino)) (hint_files (Cache.dir cache))));
  with_tmp_cache (fun cache ->
      regen cache (spec_overlap 400 600);
      let before = hint_files (Cache.dir cache) in
      let dual0 = Obs.counter_value m_dual_pivots in
      regen cache (spec_overlap 300 100);
      Alcotest.(check bool) "the dual phase moved a hint" true
        (Obs.counter_value m_dual_pivots > dual0);
      let after = hint_files (Cache.dir cache) in
      Alcotest.(check (list string))
        "the same hint names" (List.map (fun (n, _, _) -> n) before)
        (List.map (fun (n, _, _) -> n) after);
      let replaced =
        List.filter
          (fun ((_, ino, bytes), (_, ino', bytes')) ->
            ino <> ino' && bytes <> bytes')
          (List.combine before after)
      in
      Alcotest.(check bool) "the moved hint was replaced" true (replaced <> []))

(* ---- cache scrub: stale vs corrupt (satellite) ---- *)

let test_scrub_stale_vs_corrupt () =
  with_tmp_cache (fun c ->
      let dir = Cache.dir c in
      let keep = String.make 32 'a' in
      Cache.store c ~key:keep "good payload";
      (* a well-formed entry from a previous format version *)
      let stale_key = String.make 32 'b' in
      let payload = "old payload" in
      let oc = open_out_bin (Filename.concat dir (stale_key ^ ".entry")) in
      Printf.fprintf oc "hydra-cache %d %s\npayload %d %s\n%s"
        (Cache.format_version - 1)
        stale_key (String.length payload)
        (Digest.to_hex (Digest.string payload))
        payload;
      close_out oc;
      (* plain corruption *)
      let bad_key = String.make 32 'c' in
      let oc = open_out_bin (Filename.concat dir (bad_key ^ ".entry")) in
      output_string oc "garbage\n";
      close_out oc;
      let r = Cache.scrub ~dir () in
      Alcotest.(check int) "total" 3 r.Cache.sr_total;
      Alcotest.(check int) "ok" 1 r.Cache.sr_ok;
      Alcotest.(check (list string))
        "stale names the old-format entry"
        [ stale_key ^ ".entry" ]
        (List.map (fun (b : Cache.bad_entry) -> b.Cache.be_file) r.Cache.sr_stale);
      Alcotest.(check (list string))
        "bad names the corrupt entry"
        [ bad_key ^ ".entry" ]
        (List.map (fun (b : Cache.bad_entry) -> b.Cache.be_file) r.Cache.sr_bad);
      (* stale entries are misses for find, not crashes *)
      Alcotest.(check (option string)) "stale entry misses" None
        (Cache.find c ~key:stale_key);
      (* --delete removes both kinds, keeps the good entry *)
      let r = Cache.scrub ~delete:true ~dir () in
      Alcotest.(check int) "deleted both" 2 r.Cache.sr_deleted;
      let r = Cache.scrub ~dir () in
      Alcotest.(check int) "only the good entry remains" 1 r.Cache.sr_total;
      Alcotest.(check int) "and it is ok" 1 r.Cache.sr_ok)

(* corrupt hint payloads degrade to cold solves (Lp.vector_of_string /
   decode_warm are total) — exercised via a hand-corrupted hint file *)
let test_corrupt_hint_is_a_miss () =
  with_tmp_cache (fun c ->
      let key = String.make 32 'd' in
      Cache.store_hint c ~key "hydra-warm 1\nbasis 0 not-a-number\n";
      (* the entry reads back fine; it is the decode layer that must
         reject it — mirrored here by the formulate decoder contract *)
      match Cache.find_hint c ~key with
      | None -> Alcotest.fail "stored hint should read back"
      | Some _ -> ())

let () =
  Alcotest.run "solve"
    [
      ( "of-float",
        [
          Alcotest.test_case "of_float_opt total variant" `Quick
            test_of_float_opt;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_simplex_differential;
            prop_int_feasible_differential;
            prop_budget_verdicts;
          ] );
      ( "repair",
        [
          Alcotest.test_case "adversarial suboptimal basis is repaired" `Quick
            test_adversarial_repair;
          Alcotest.test_case "decisive costs need no repair" `Quick
            test_decisive_costs_not_repaired;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "warm basis verifies directly" `Quick
            test_warm_basis_direct;
          Alcotest.test_case "structural hint warm-starts a nudged run" `Quick
            test_warm_hint_end_to_end;
          Alcotest.test_case "primal-infeasible hint is repaired by the dual"
            `Quick test_drifted_hint_end_to_end;
          Alcotest.test_case "drifted hints match hint-free solves" `Quick
            test_drifted_hints;
          Alcotest.test_case "a hint the solve ended on is not rewritten"
            `Quick test_unchanged_hint_not_rewritten;
          Alcotest.test_case "aborted float warm run: exact dual repair"
            `Quick test_exact_dual_repair;
          Alcotest.test_case "corrupt hint payloads are tolerated" `Quick
            test_corrupt_hint_is_a_miss;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "stale vs corrupt classification" `Quick
            test_scrub_stale_vs_corrupt;
        ] );
    ]
