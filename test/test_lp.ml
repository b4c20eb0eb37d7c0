(* Tests for the LP model, the exact simplex, and integer feasibility.
   Includes the paper's Figure 4(b) region-partitioned Person system. *)

open Hydra_arith
open Hydra_lp
module Obs = Hydra_obs.Obs

let rat = Rat.of_int

let feasible = function
  | Simplex.Feasible x -> x
  | Simplex.Infeasible -> Alcotest.fail "expected feasible, got infeasible"
  | Simplex.Unbounded -> Alcotest.fail "expected feasible, got unbounded"
  | Simplex.Timeout -> Alcotest.fail "expected feasible, got timeout"

let test_single_eq () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_eq lp [ (x, Rat.one) ] (rat 5);
  let sol = feasible (Simplex.solve lp) in
  Alcotest.(check bool) "x = 5" true (Rat.equal sol.(x) (rat 5));
  Alcotest.(check bool) "satisfies" true (Lp.check lp sol)

let test_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_eq lp [ (x, Rat.one) ] (rat 5);
  Lp.add_eq lp [ (x, Rat.one) ] (rat 7);
  (match Simplex.solve lp with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  (* negativity forced through x >= 0 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_constraint lp [ (x, Rat.one) ] Lp.Le (rat (-3));
  match Simplex.solve lp with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible (x <= -3, x >= 0)"

let test_person_figure4 () =
  (* y1 + y2 = 1000; y2 + y3 = 2000; y1 + y2 + y3 + y4 = 8000 *)
  let lp = Lp.create () in
  let y1 = Lp.add_var lp () in
  let y2 = Lp.add_var lp () in
  let y3 = Lp.add_var lp () in
  let y4 = Lp.add_var lp () in
  Lp.add_eq_count lp [ y1; y2 ] 1000;
  Lp.add_eq_count lp [ y2; y3 ] 2000;
  Lp.add_eq_count lp [ y1; y2; y3; y4 ] 8000;
  let sol = feasible (Simplex.solve lp) in
  Alcotest.(check bool) "exact satisfaction" true (Lp.check lp sol);
  (* also as an integer problem *)
  match Int_feasible.solve lp with
  | Int_feasible.Solution xi ->
      Alcotest.(check bool) "integer solution checks" true
        (Int_feasible.check lp xi)
  | _ -> Alcotest.fail "expected an integer solution"

let test_inequalities () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_constraint lp [ (x, Rat.one); (y, Rat.one) ] Lp.Ge (rat 10);
  Lp.add_constraint lp [ (x, Rat.one) ] Lp.Le (rat 4);
  Lp.add_constraint lp [ (y, Rat.one) ] Lp.Le (rat 7);
  let sol = feasible (Simplex.solve lp) in
  Alcotest.(check bool) "satisfies" true (Lp.check lp sol)

let test_objective () =
  (* minimize x + y subject to x + y >= 10 picks the boundary *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_constraint lp [ (x, Rat.one); (y, Rat.one) ] Lp.Ge (rat 10);
  let sol =
    feasible (Simplex.solve ~objective:[ (x, Rat.one); (y, Rat.one) ] lp)
  in
  Alcotest.(check bool) "x + y = 10" true
    (Rat.equal (Rat.add sol.(x) sol.(y)) (rat 10))

let test_unbounded_objective () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_constraint lp [ (x, Rat.one); (y, Rat.one) ] Lp.Ge (rat 10);
  match Simplex.solve ~objective:[ (x, Rat.minus_one) ] lp with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_fractional_vertex_branching () =
  (* 2x = 3 has the unique solution x = 3/2: integer-infeasible *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_eq lp [ (x, rat 2) ] (rat 3);
  (match Int_feasible.solve lp with
  | Int_feasible.Infeasible -> ()
  | _ -> Alcotest.fail "2x=3 has no integer solution");
  (* x + 2y = 5, 3x + y = 5 -> vertex (1,2): integral after solving *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_eq lp [ (x, Rat.one); (y, rat 2) ] (rat 5);
  Lp.add_eq lp [ (x, rat 3); (y, Rat.one) ] (rat 5);
  match Int_feasible.solve lp with
  | Int_feasible.Solution xi ->
      Alcotest.(check string) "x" "1" (Bigint.to_string xi.(x));
      Alcotest.(check string) "y" "2" (Bigint.to_string xi.(y))
  | _ -> Alcotest.fail "expected solution (1,2)"

let test_gave_up () =
  (* a node budget of 1 cannot finish branching on a fractional system *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_eq lp [ (x, rat 2); (y, rat 2) ] (rat 3);
  match Int_feasible.solve ~max_nodes:1 lp with
  | Int_feasible.Gave_up -> ()
  | Int_feasible.Solution _ -> Alcotest.fail "2x+2y=3 has no integer solution"
  | Int_feasible.Infeasible ->
      Alcotest.fail "budget 1 cannot prove integer infeasibility"
  | Int_feasible.Timeout -> Alcotest.fail "no deadline was given"

(* ---- deadlines and budgets ---- *)

let person_lp () =
  let lp = Lp.create () in
  let y1 = Lp.add_var lp () in
  let y2 = Lp.add_var lp () in
  let y3 = Lp.add_var lp () in
  let y4 = Lp.add_var lp () in
  Lp.add_eq_count lp [ y1; y2 ] 1000;
  Lp.add_eq_count lp [ y2; y3 ] 2000;
  Lp.add_eq_count lp [ y1; y2; y3; y4 ] 8000;
  lp

let test_simplex_deadline () =
  (* a deadline already in the past: any system needing pivots times out *)
  let past = Hydra_obs.Mclock.now () -. 1.0 in
  (match Simplex.solve ~deadline:past (person_lp ()) with
  | Simplex.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout with an expired deadline");
  (* ... but a generous deadline changes nothing *)
  let future = Hydra_obs.Mclock.now () +. 60.0 in
  let sol = feasible (Simplex.solve ~deadline:future (person_lp ())) in
  Alcotest.(check bool) "satisfies" true (Lp.check (person_lp ()) sol)

let test_simplex_iteration_budget () =
  (match Simplex.solve ~max_iters:0 (person_lp ()) with
  | Simplex.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout with a zero pivot budget");
  (* an already-optimal start basis never times out, even with zero
     budget: no constraints means the origin is the answer *)
  let lp = Lp.create () in
  ignore (Lp.add_var lp ());
  match Simplex.solve ~max_iters:0 lp with
  | Simplex.Feasible _ -> ()
  | _ -> Alcotest.fail "trivial system must not time out"

let test_int_feasible_deadline () =
  let past = Hydra_obs.Mclock.now () -. 1.0 in
  match Int_feasible.solve ~deadline:past (person_lp ()) with
  | Int_feasible.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout with an expired deadline"

(* ---- relaxation ---- *)

let test_relax_conflicting () =
  (* x = 5 and x = 7 cannot both hold; the closest-feasible point leaves
     total violation exactly 2 wherever x lands in [5,7] *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_eq lp [ (x, Rat.one) ] (rat 5);
  Lp.add_eq lp [ (x, Rat.one) ] (rat 7);
  match Relax.solve lp with
  | Relax.Relaxed { x = xi; violations; total_violation } ->
      Alcotest.(check bool) "total violation = 2" true
        (Rat.equal total_violation (rat 2));
      Alcotest.(check int) "one violation per constraint" 2
        (Array.length violations);
      let v = Bigint.to_int_exn xi.(x) in
      Alcotest.(check bool) "x within [5,7]" true (v >= 5 && v <= 7)
  | _ -> Alcotest.fail "expected a relaxed solution"

let test_relax_feasible_is_exact () =
  (* relaxing a feasible system must report zero violation *)
  let lp = person_lp () in
  match Relax.solve lp with
  | Relax.Relaxed { x; total_violation; _ } ->
      Alcotest.(check bool) "zero violation" true
        (Rat.is_zero total_violation);
      Alcotest.(check bool) "integer point satisfies" true
        (Int_feasible.check lp x)
  | _ -> Alcotest.fail "expected a relaxed solution"

let test_relax_weights () =
  (* conflicting y = 0 vs y = 10: the heavier constraint wins *)
  let lp = Lp.create () in
  let y = Lp.add_var lp () in
  Lp.add_eq lp [ (y, Rat.one) ] (rat 0);
  Lp.add_eq lp [ (y, Rat.one) ] (rat 10);
  let weight i = if i = 1 then rat 100 else Rat.one in
  match Relax.solve ~weight lp with
  | Relax.Relaxed { x; violations; _ } ->
      Alcotest.(check string) "y follows the heavy constraint" "10"
        (Bigint.to_string x.(y));
      Alcotest.(check string) "light constraint absorbs the violation" "10"
        (Rat.to_string violations.(0));
      Alcotest.(check string) "heavy constraint is met" "0"
        (Rat.to_string violations.(1))
  | _ -> Alcotest.fail "expected a relaxed solution"

let test_relax_deadline () =
  let past = Hydra_obs.Mclock.now () -. 1.0 in
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_eq lp [ (x, Rat.one) ] (rat 5);
  Lp.add_eq lp [ (x, Rat.one) ] (rat 7);
  match Relax.solve ~deadline:past lp with
  | Relax.Timeout -> ()
  | _ -> Alcotest.fail "expected timeout with an expired deadline"

let test_residuals () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_eq lp [ (x, Rat.one) ] (rat 5);
  Lp.add_constraint lp [ (x, Rat.one) ] Lp.Le (rat 3);
  let r = Lp.residuals lp [| rat 4 |] in
  (match r with
  | [ r1; r2 ] ->
      Alcotest.(check string) "eq residual" "-1" (Rat.to_string r1);
      Alcotest.(check string) "le violation" "1" (Rat.to_string r2)
  | _ -> Alcotest.fail "two residuals expected");
  Alcotest.(check bool) "check rejects" false (Lp.check lp [| rat 4 |]);
  Alcotest.(check bool) "negative rejected" false (Lp.check lp [| rat (-5) |])

(* counters are registered by name: these are the cells the solver bumps *)
let m_solves = Obs.counter "simplex.solves"
let m_iterations = Obs.counter "simplex.iterations"
let m_float_pivots = Obs.counter "simplex.float_pivots"

let test_stats_populated () =
  Obs.set_enabled true;
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_eq lp [ (x, Rat.one) ] (rat 5);
  let solves0 = Obs.counter_value m_solves in
  let iters0 = Obs.counter_value m_iterations in
  ignore (Simplex.solve lp);
  Alcotest.(check int) "one solve counted" (solves0 + 1)
    (Obs.counter_value m_solves);
  Alcotest.(check bool) "iterations counted" true
    (Obs.counter_value m_iterations > iters0)

(* an objective naming a variable the LP does not have is rejected up
   front, whatever the system and the mode, before any pivot *)
let test_objective_variable_checked () =
  Obs.set_enabled true;
  let systems =
    [
      ( "infeasible",
        fun lp x ->
          Lp.add_eq lp [ (x, Rat.one) ] (rat 5);
          Lp.add_eq lp [ (x, Rat.one) ] (rat 7) );
      ("feasible", fun lp x -> Lp.add_eq lp [ (x, Rat.one) ] (rat 5));
      ("no constraints", fun _ _ -> ());
    ]
  in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun mode ->
          let lp = Lp.create () in
          build lp (Lp.add_var lp ());
          let label =
            Printf.sprintf "%s, %s" name (Simplex.mode_to_string mode)
          in
          let floats0 = Obs.counter_value m_float_pivots in
          Alcotest.check_raises label
            (Invalid_argument "Simplex.solve: objective variable") (fun () ->
              ignore (Simplex.solve ~mode ~objective:[ (7, Rat.one) ] lp));
          Alcotest.(check int) (label ^ ": no float pivot") floats0
            (Obs.counter_value m_float_pivots))
        [ Simplex.Exact; Simplex.Float_first ])
    systems

let test_big_cardinalities () =
  (* exabyte-scale counts: 10^18 rows split across two regions *)
  let lp = Lp.create () in
  let a = Lp.add_var lp () and b = Lp.add_var lp () in
  let huge = Rat.of_bigint (Bigint.of_string "1000000000000000000") in
  Lp.add_eq lp [ (a, Rat.one); (b, Rat.one) ] huge;
  Lp.add_eq lp [ (a, Rat.one) ] (Rat.of_bigint (Bigint.of_string "999999999999999999"));
  match Int_feasible.solve lp with
  | Int_feasible.Solution xi ->
      Alcotest.(check string) "a" "999999999999999999" (Bigint.to_string xi.(a));
      Alcotest.(check string) "b" "1" (Bigint.to_string xi.(b))
  | _ -> Alcotest.fail "expected exabyte-scale solution"

(* property: random systems built from a known non-negative integer witness
   are solvable, and the returned solution satisfies all constraints *)
let witness_system_gen =
  let open QCheck.Gen in
  let* n = int_range 2 8 in
  let* m = int_range 1 5 in
  let* witness = array_size (return n) (int_range 0 50) in
  let* rows =
    list_size (return m)
      (list_size (return n) (int_range 0 2) (* small non-negative coefs *))
  in
  return (witness, rows)

let prop_witnessed_systems =
  QCheck.Test.make ~name:"simplex solves witnessed systems" ~count:150
    (QCheck.make witness_system_gen) (fun (witness, rows) ->
      let lp = Lp.create () in
      let n = Array.length witness in
      ignore (Lp.add_vars lp n);
      List.iter
        (fun row ->
          let terms =
            List.mapi (fun i c -> (i, rat c)) row
            |> List.filter (fun (_, c) -> not (Rat.is_zero c))
          in
          if terms <> [] then begin
            let rhs =
              List.fold_left
                (fun acc (i, c) -> Rat.add acc (Rat.mul c (rat witness.(i))))
                Rat.zero terms
            in
            Lp.add_eq lp terms rhs
          end)
        rows;
      match Simplex.solve lp with
      | Simplex.Feasible x -> Lp.check lp x
      | _ -> false)

(* optimality: simplex minimization must match brute force over a small
   integer box (the LP optimum of these systems lies at integer points
   because constraints and bounds are integral and we only check <=) *)
let prop_objective_optimality =
  let gen =
    let open QCheck.Gen in
    let* c1 = int_range 1 5 in
    let* c2 = int_range 1 5 in
    let* b1 = int_range 1 10 in
    let* b2 = int_range 1 10 in
    let* target = int_range 1 15 in
    return (c1, c2, b1, b2, target)
  in
  QCheck.Test.make ~name:"simplex minimization matches brute force" ~count:150
    (QCheck.make gen) (fun (c1, c2, b1, b2, target) ->
      (* minimize c1*x + c2*y  s.t.  x <= b1, y <= b2, x + y >= target *)
      QCheck.assume (b1 + b2 >= target);
      let lp = Lp.create () in
      let x = Lp.add_var lp () and y = Lp.add_var lp () in
      Lp.add_constraint lp [ (x, Rat.one) ] Lp.Le (rat b1);
      Lp.add_constraint lp [ (y, Rat.one) ] Lp.Le (rat b2);
      Lp.add_constraint lp [ (x, Rat.one); (y, Rat.one) ] Lp.Ge (rat target);
      match Simplex.solve ~objective:[ (x, rat c1); (y, rat c2) ] lp with
      | Simplex.Feasible sol ->
          let got =
            Rat.add (Rat.mul (rat c1) sol.(x)) (Rat.mul (rat c2) sol.(y))
          in
          (* brute force over the integer box *)
          let best = ref max_int in
          for xi = 0 to b1 do
            for yi = 0 to b2 do
              if xi + yi >= target then
                best := min !best ((c1 * xi) + (c2 * yi))
            done
          done;
          Rat.equal got (rat !best)
      | _ -> false)

let prop_integer_witnessed_systems =
  QCheck.Test.make ~name:"int_feasible solves witnessed systems" ~count:80
    (QCheck.make witness_system_gen) (fun (witness, rows) ->
      let lp = Lp.create () in
      let n = Array.length witness in
      ignore (Lp.add_vars lp n);
      List.iter
        (fun row ->
          let terms =
            List.mapi (fun i c -> (i, rat c)) row
            |> List.filter (fun (_, c) -> not (Rat.is_zero c))
          in
          if terms <> [] then begin
            let rhs =
              List.fold_left
                (fun acc (i, c) -> Rat.add acc (Rat.mul c (rat witness.(i))))
                Rat.zero terms
            in
            Lp.add_eq lp terms rhs
          end)
        rows;
      match Int_feasible.solve lp with
      | Int_feasible.Solution xi -> Int_feasible.check lp xi
      | Int_feasible.Gave_up -> true (* budget exhaustion is not a failure *)
      | Int_feasible.Infeasible -> false
      | Int_feasible.Timeout -> false (* no deadline was given *))

(* ---- the key renderer ----

   [Lp.render] writes the text the solve cache's keys digest. The keys
   are content addresses already on disk, so its bytes must stay those
   of the Format renderer it replaced, kept here as the reference. *)
let reference_pp ~rhs fmt lp =
  let pp_rel fmt = function
    | Lp.Eq -> Format.pp_print_string fmt "="
    | Lp.Le -> Format.pp_print_string fmt "<="
    | Lp.Ge -> Format.pp_print_string fmt ">="
  in
  Format.fprintf fmt "@[<v>LP with %d vars, %d constraints@,"
    (Lp.num_vars lp) (Lp.num_constraints lp);
  List.iter
    (fun (c : Lp.constr) ->
      List.iteri
        (fun i (v, coef) ->
          if i > 0 then Format.fprintf fmt " + ";
          if Rat.equal coef Rat.one then Format.fprintf fmt "x%d" v
          else Format.fprintf fmt "%a*x%d" Rat.pp coef v)
        c.Lp.terms;
      Format.fprintf fmt " %a " pp_rel c.Lp.rel;
      if rhs then Format.fprintf fmt "%a@," Rat.pp c.Lp.rhs
      else Format.fprintf fmt "_@,")
    (Lp.constraints lp);
  Format.fprintf fmt "@]"

(* Empty systems, all three relations, negative, fractional and large
   coefficients, and rows from empty to far past Format's 78-column
   margin. *)
let render_gen =
  let open QCheck.Gen in
  let rat_gen =
    frequency
      [
        (4, return Rat.one);
        (3, map rat (int_range (-20) 20));
        ( 3,
          map2
            (fun p q -> Rat.div (rat p) (rat q))
            (int_range (-99) 99) (int_range 1 12) );
        ( 1,
          map
            (fun k -> Rat.mul (rat k) (Rat.of_string "123456789012345678901"))
            (int_range (-3) 3) );
      ]
  in
  let* nvars = frequency [ (1, return 0); (6, int_range 1 400) ] in
  let row =
    let* terms =
      if nvars = 0 then return []
      else
        list_size
          (frequency [ (1, return 0); (4, int_range 1 6); (3, int_range 7 60) ])
          (pair (int_range 0 (nvars - 1)) rat_gen)
    in
    let* rel = oneofl [ Lp.Eq; Lp.Le; Lp.Ge ] in
    let* rhs = rat_gen in
    return (terms, rel, rhs)
  in
  let* nrows = frequency [ (1, return 0); (6, int_range 1 12) ] in
  let* rows = list_size (return nrows) row in
  return (nvars, rows)

let prop_render_matches_format =
  QCheck.Test.make ~name:"Lp.render equals the Format rendering, both keys"
    ~count:400
    (QCheck.make render_gen) (fun (nvars, rows) ->
      let lp = Lp.create () in
      ignore (Lp.add_vars lp nvars);
      List.iter
        (fun (terms, rel, rhs) -> Lp.add_constraint lp terms rel rhs)
        rows;
      let full = Buffer.create 256 and structure = Buffer.create 256 in
      Lp.render lp ~full ~structure;
      let expect rhs = Format.asprintf "%a" (reference_pp ~rhs) lp in
      let check what want got =
        if want <> got then
          QCheck.Test.fail_reportf "%s rendering differs:@.want %S@.got  %S"
            what want got
      in
      check "full" (expect true) (Buffer.contents full);
      check "structural" (expect false) (Buffer.contents structure);
      true)

let suite =
  [
    ( "simplex",
      [
        Alcotest.test_case "single equality" `Quick test_single_eq;
        Alcotest.test_case "infeasible" `Quick test_infeasible;
        Alcotest.test_case "Person Figure 4b" `Quick test_person_figure4;
        Alcotest.test_case "inequalities" `Quick test_inequalities;
        Alcotest.test_case "objective" `Quick test_objective;
        Alcotest.test_case "unbounded objective" `Quick test_unbounded_objective;
        Alcotest.test_case "big cardinalities" `Quick test_big_cardinalities;
        Alcotest.test_case "residuals and check" `Quick test_residuals;
        Alcotest.test_case "solver statistics" `Quick test_stats_populated;
        Alcotest.test_case "objective variable checked up front" `Quick
          test_objective_variable_checked;
        Alcotest.test_case "wall-clock deadline" `Quick test_simplex_deadline;
        Alcotest.test_case "iteration budget" `Quick
          test_simplex_iteration_budget;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_witnessed_systems; prop_objective_optimality ] );
    ( "int_feasible",
      [
        Alcotest.test_case "fractional vertex branching" `Quick
          test_fractional_vertex_branching;
        Alcotest.test_case "budget exhaustion" `Quick test_gave_up;
        Alcotest.test_case "wall-clock deadline" `Quick
          test_int_feasible_deadline;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_integer_witnessed_systems ]
    );
    ( "render",
      List.map QCheck_alcotest.to_alcotest [ prop_render_matches_format ] );
    ( "relax",
      [
        Alcotest.test_case "conflicting equalities" `Quick
          test_relax_conflicting;
        Alcotest.test_case "feasible system relaxes to exact" `Quick
          test_relax_feasible_is_exact;
        Alcotest.test_case "weights steer the violation" `Quick
          test_relax_weights;
        Alcotest.test_case "deadline" `Quick test_relax_deadline;
      ] );
  ]

let () = Alcotest.run "hydra-lp" suite
