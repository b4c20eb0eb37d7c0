open Hydra_arith
module Obs = Hydra_obs.Obs

(* registry handles are created once at load time; every update is a
   single flag test when tracing is disabled *)
let m_solves = Obs.counter "simplex.solves"
let m_iterations = Obs.counter "simplex.iterations"

type status =
  | Feasible of Rat.t array
  | Infeasible
  | Unbounded
  | Timeout

type mode = Exact | Float_first

let mode_to_string = function Exact -> "exact" | Float_first -> "float-first"

let build_tableau lp =
  Obs.with_span "lp.tableau" @@ fun () ->
  let constrs = Array.of_list (Lp.constraints lp) in
  let m = Array.length constrs in
  let nstruct = Lp.num_vars lp in
  (* normalize rows so rhs >= 0 *)
  let rows =
    Array.map
      (fun (c : Lp.constr) ->
        if Rat.sign c.Lp.rhs < 0 then
          let terms = List.map (fun (v, k) -> (v, Rat.neg k)) c.Lp.terms in
          let rel =
            match c.Lp.rel with Lp.Eq -> Lp.Eq | Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le
          in
          (terms, rel, Rat.neg c.Lp.rhs)
        else (c.Lp.terms, c.Lp.rel, c.Lp.rhs))
      constrs
  in
  (* each row's variables once, their mentions summed in a scatter
     array; a variable whose sum is zero is dropped *)
  let sum = Array.make nstruct Rat.zero and last = Array.make nstruct (-1) in
  let entries =
    Array.mapi
      (fun i (terms, _, _) ->
        let vars = ref [] in
        List.iter
          (fun (v, k) ->
            if last.(v) = i then sum.(v) <- Rat.add sum.(v) k
            else begin
              last.(v) <- i;
              sum.(v) <- k;
              vars := v :: !vars
            end)
          terms;
        List.filter_map
          (fun v -> if Rat.is_zero sum.(v) then None else Some (v, sum.(v)))
          !vars)
      rows
  in
  (* count slacks *)
  let nslack =
    Array.fold_left
      (fun acc (_, rel, _) -> match rel with Lp.Eq -> acc | _ -> acc + 1)
      0 rows
  in
  let art_first = nstruct + nslack in
  (* every row gets an artificial except Le rows, whose slack can start basic *)
  let nart =
    Array.fold_left
      (fun acc (_, rel, _) -> if rel = Lp.Le then acc else acc + 1)
      0 rows
  in
  let n = art_first + nart in
  let len = Array.make n 1 in
  Array.fill len 0 nstruct 0;
  Array.iter (List.iter (fun (v, _) -> len.(v) <- len.(v) + 1)) entries;
  let cidx = Array.map (fun k -> Array.make k 0) len in
  let cval = Array.map (fun k -> Array.make k Rat.zero) len in
  (* a column's entries run from its last row up *)
  let put j i k =
    len.(j) <- len.(j) - 1;
    cidx.(j).(len.(j)) <- i;
    cval.(j).(len.(j)) <- k
  in
  let b = Array.make m Rat.zero in
  let basis = Array.make m (-1) in
  let slack = ref nstruct and art = ref art_first in
  Array.iteri
    (fun i (_, rel, rhs) ->
      b.(i) <- rhs;
      List.iter (fun (v, k) -> put v i k) entries.(i);
      (match rel with
      | Lp.Le ->
          put !slack i Rat.one;
          basis.(i) <- !slack;
          incr slack
      | Lp.Ge ->
          put !slack i Rat.minus_one;
          incr slack
      | Lp.Eq -> ());
      match rel with
      | Lp.Le -> ()
      | Lp.Eq | Lp.Ge ->
          put !art i Rat.one;
          basis.(i) <- !art;
          incr art)
    rows;
  ({ Pivot.m; n; cidx; cval; b; art_first }, basis)

(* The ladder: a rung that delivers a verified run is the answer, and
   every other way down ends in the cold exact run. The rungs are the
   warm float run (else the hint itself, repaired exactly), the cold
   float run, and the cold exact run. All rungs share the budget and the
   iteration count. *)
let ladder mode ~warm_basis ~budget t start ~objective iter_count =
  let verify ?hint =
    Basis_verify.verify ?hint ~budget t ~objective iter_count
  in
  (* a float run's terminal basis is verified once; a run that aborts or
     times out hands its rung on (on the cold rung the exact run then
     continues under the same budget and count, so a timeout verdict
     matches exact mode's) *)
  let float_run ~warm cand =
    match Simplex_f.run ~warm ~budget t cand ~objective iter_count with
    | Pivot.Optimal | Pivot.Infeasible | Pivot.Unbounded -> verify cand
    | Pivot.Aborted | Pivot.Timeout -> None
  in
  let warm hint =
    (* a hint from a cache is only trusted to be an int array *)
    if
      Array.length hint <> t.Pivot.m
      || Array.exists (fun j -> j < 0 || j >= t.Pivot.n) hint
    then None
    else
      match float_run ~warm:true (Array.copy hint) with
      | Some r -> Some r
      | None -> verify ~hint:true hint
  in
  let verified =
    match mode with
    | Exact -> None
    | Float_first -> (
        match Option.bind warm_basis warm with
        | Some r -> Some r
        | None -> float_run ~warm:false (Array.copy start))
  in
  match verified with
  | Some r -> r
  | None -> Basis_verify.cold ~budget t start ~objective iter_count

let solve ?(mode = Exact) ?warm_basis ?objective ?deadline ?max_iters
    ?basis_out lp =
  let nvars = Lp.num_vars lp in
  Option.iter
    (List.iter (fun (v, _) ->
         if v < 0 || v >= nvars then
           invalid_arg "Simplex.solve: objective variable"))
    objective;
  let t, start = build_tableau lp in
  Obs.incr m_solves 1;
  if t.Pivot.m = 0 then
    (* no constraints: the origin is feasible, and the problem is unbounded
       exactly when some variable's accumulated net coefficient is
       negative *)
    let net = Array.make nvars Rat.zero in
    Option.iter
      (List.iter (fun (v, c) -> net.(v) <- Rat.add net.(v) c))
      objective;
    if Array.exists (fun c -> Rat.sign c < 0) net then Unbounded
    else Feasible (Array.make nvars Rat.zero)
  else begin
    let iter_count = ref 0 in
    let { Basis_verify.outcome; basis; xb } =
      ladder mode ~warm_basis
        ~budget:{ Pivot.deadline; max_iters }
        t start ~objective iter_count
    in
    Obs.incr m_iterations !iter_count;
    match outcome with
    | Pivot.Optimal ->
        Option.iter (fun r -> r := Some basis) basis_out;
        let x = Array.make nvars Rat.zero in
        Array.iteri (fun i bi -> if bi < nvars then x.(bi) <- xb.(i)) basis;
        Feasible x
    | Pivot.Infeasible -> Infeasible
    | Pivot.Unbounded -> Unbounded
    | Pivot.Timeout -> Timeout
    | Pivot.Aborted -> assert false (* exact runs never abort *)
  end
