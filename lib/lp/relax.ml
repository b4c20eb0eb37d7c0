(* Closest-feasible relaxation of an infeasible (or too-hard) system.

   Every constraint is augmented with non-negative slack variables that
   absorb its violation — a deficit slack for Ge, a surplus slack for Le,
   one of each for Eq — and the simplex minimizes the weighted sum of all
   slacks. The relaxed system is feasible by construction (x = 0 with
   slacks equal to the right-hand sides is a point) and the objective is
   bounded below by zero, so the solve can only end Feasible or Timeout. *)

open Hydra_arith
module Obs = Hydra_obs.Obs

let m_solves = Obs.counter "relax.solves"
let m_violated = Obs.counter "relax.violated_constraints"
let h_slack = Obs.histogram "relax.slack_mass"

type outcome =
  | Relaxed of {
      x : Bigint.t array;
      violations : Rat.t array;
      total_violation : Rat.t;
    }
  | Timeout
  | Failed of string

let solve ?deadline ?max_iters ?(max_nodes = 2000) ?(mode = Simplex.Exact)
    ?(weight = fun _ -> Rat.one) lp =
  Obs.incr m_solves 1;
  let lp' = Lp.create () in
  let nstruct = Lp.num_vars lp in
  ignore (Lp.add_vars lp' nstruct);
  let objective = ref [] in
  List.iteri
    (fun i (c : Lp.constr) ->
      let w = weight i in
      if Rat.sign w <= 0 then
        invalid_arg "Relax.solve: constraint weights must be positive";
      let slack () =
        let s = Lp.add_var lp' () in
        objective := (s, w) :: !objective;
        s
      in
      match c.Lp.rel with
      | Lp.Eq ->
          (* lhs + deficit - surplus = rhs *)
          let deficit = slack () and surplus = slack () in
          Lp.add_constraint lp'
            (c.Lp.terms @ [ (deficit, Rat.one); (surplus, Rat.minus_one) ])
            Lp.Eq c.Lp.rhs
      | Lp.Le ->
          let surplus = slack () in
          Lp.add_constraint lp'
            (c.Lp.terms @ [ (surplus, Rat.minus_one) ])
            Lp.Le c.Lp.rhs
      | Lp.Ge ->
          let deficit = slack () in
          Lp.add_constraint lp'
            (c.Lp.terms @ [ (deficit, Rat.one) ])
            Lp.Ge c.Lp.rhs)
    (Lp.constraints lp);
  match
    Simplex.solve ~mode ~objective:!objective ?deadline ?max_iters lp'
  with
  | Simplex.Timeout -> Timeout
  | Simplex.Infeasible | Simplex.Unbounded ->
      (* impossible by construction; surfaced rather than asserted so a
         solver defect degrades instead of crashing the pipeline *)
      Failed "relaxation LP unexpectedly infeasible or unbounded"
  | Simplex.Feasible x' ->
      (* The report is always recomputed from the integer point against the
         ORIGINAL system — what we return is the ground truth for the
         solution we return. *)
      let report x =
        let xr = Array.map Rat.of_bigint x in
        let violations =
          Array.of_list (List.map Rat.abs (Lp.residuals lp xr))
        in
        let total_violation = Array.fold_left Rat.add Rat.zero violations in
        Obs.incr m_violated
          (Array.fold_left
             (fun acc v -> if Rat.sign v > 0 then acc + 1 else acc)
             0 violations);
        Obs.observe h_slack (Rat.to_float total_violation);
        Relaxed { x; violations; total_violation }
      in
      (* Integerizing the rational optimum coordinate-by-coordinate would
         perturb every constraint it touches — including satisfied ones,
         whose exactness downstream stages may rely on. Instead, re-anchor:
         shift each constraint's right-hand side to the integer nearest its
         achieved value (satisfied constraints keep their original rhs) and
         run the integer search on that system, which the rational optimum
         nearly satisfies. *)
      let eval terms =
        List.fold_left
          (fun acc (v, c) -> Rat.add acc (Rat.mul c x'.(v)))
          Rat.zero terms
      in
      let anchored = Lp.create () in
      ignore (Lp.add_vars anchored nstruct);
      List.iter
        (fun (c : Lp.constr) ->
          let v = eval c.Lp.terms in
          let nearest = Rat.of_bigint (Rat.round_nearest v) in
          let rhs =
            match c.Lp.rel with
            | Lp.Eq -> nearest
            | Lp.Le -> if Rat.compare v c.Lp.rhs <= 0 then c.Lp.rhs else nearest
            | Lp.Ge -> if Rat.compare v c.Lp.rhs >= 0 then c.Lp.rhs else nearest
          in
          Lp.add_constraint anchored c.Lp.terms c.Lp.rel rhs)
        (Lp.constraints lp);
      match Int_feasible.solve ~max_nodes ?deadline ~mode anchored with
      | Int_feasible.Solution x -> report x
      | Int_feasible.Infeasible | Int_feasible.Gave_up | Int_feasible.Timeout
        ->
          (* last resort: naive per-coordinate rounding *)
          report
            (Array.init nstruct (fun i ->
                 let v = Rat.round_nearest x'.(i) in
                 if Bigint.sign v < 0 then Bigint.zero else v))
