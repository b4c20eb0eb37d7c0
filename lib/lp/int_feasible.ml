open Hydra_arith
module Obs = Hydra_obs.Obs
module Mclock = Hydra_obs.Mclock

let m_nodes = Obs.counter "bnb.nodes"
let m_backtracks = Obs.counter "bnb.backtracks"
let g_max_depth = Obs.gauge "bnb.max_depth"

type status =
  | Solution of Bigint.t array
  | Infeasible
  | Gave_up
  | Timeout

let check lp xi =
  let x = Array.map Rat.of_bigint xi in
  Array.for_all (fun v -> Bigint.sign v >= 0) xi && Lp.check lp x

let fractional x =
  (* index of the first non-integer coordinate, if any *)
  let n = Array.length x in
  let rec go i =
    if i >= n then None
    else if Rat.is_integer x.(i) then go (i + 1)
    else Some i
  in
  go 0

(* Clone [lp]'s variables and constraints, then add branching bounds
   (var, `Le k) / (var, `Ge k). *)
let with_bounds lp bounds =
  let lp' = Lp.create () in
  ignore (Lp.add_vars lp' (Lp.num_vars lp));
  List.iter
    (fun (c : Lp.constr) -> Lp.add_constraint lp' c.Lp.terms c.Lp.rel c.Lp.rhs)
    (Lp.constraints lp);
  List.iter
    (fun (v, bound) ->
      match bound with
      | `Le k -> Lp.add_constraint lp' [ (v, Rat.one) ] Lp.Le (Rat.of_bigint k)
      | `Ge k -> Lp.add_constraint lp' [ (v, Rat.one) ] Lp.Ge (Rat.of_bigint k))
    bounds;
  lp'

let solve ?(max_nodes = 2000) ?deadline ?(mode = Simplex.Exact) ?warm_basis
    ?root_basis lp =
  let nodes = ref 0 in
  let exception Out_of_budget in
  let exception Timed_out in
  let past_deadline () =
    match deadline with
    | Some d -> Mclock.now () > d
    | None -> false
  in
  (* DFS over branching decisions; bounds accumulate along the path *)
  let rec branch depth bounds =
    if !nodes >= max_nodes then raise Out_of_budget;
    if past_deadline () then raise Timed_out;
    incr nodes;
    Obs.incr m_nodes 1;
    Obs.gauge_max g_max_depth (float_of_int depth);
    let sub = if bounds = [] then lp else with_bounds lp bounds in
    (* warm-start and basis capture apply at the root only: child
       nodes carry extra bound rows, so a root basis neither fits their
       tableau shape nor is worth caching *)
    let root = bounds = [] in
    let solved =
      Simplex.solve ~mode ?deadline
        ?warm_basis:(if root then warm_basis else None)
        ?basis_out:(if root then root_basis else None)
        sub
    in
    match solved with
    | Simplex.Timeout -> raise Timed_out
    | Simplex.Infeasible -> None
    | Simplex.Unbounded -> None (* cannot happen without an objective *)
    | Simplex.Feasible x -> (
        match fractional x with
        | None -> Some (Array.map (fun v -> Rat.num v) x)
        | Some i -> (
            let f = Rat.floor x.(i) in
            match branch (depth + 1) ((i, `Le f) :: bounds) with
            | Some s -> Some s
            | None ->
                Obs.incr m_backtracks 1;
                branch (depth + 1) ((i, `Ge (Bigint.succ f)) :: bounds)))
  in
  match branch 0 [] with
  | Some s -> Solution s
  | None -> Infeasible
  | exception Out_of_budget -> Gave_up
  | exception Timed_out -> Timeout
