open Hydra_arith
module Obs = Hydra_obs.Obs

let m_verify_repairs = Obs.counter "simplex.verify_repairs"

(* Exact verification of a candidate basis (from the float instance or
   a cache warm-start): reconstruct the basis inverse in Rat, check
   primal feasibility exactly, and resume the exact instance of the
   simplex engine from that state. From a basis that is in fact optimal,
   finishing costs one pricing pass per phase and zero pivots; any
   pivots performed are a repair. *)

(* Gauss-Jordan inversion of the m x m matrix whose columns are
   [t.cols.(basis.(j))]; None when the candidate is singular (or refers
   to columns that do not exist — a corrupt cached basis). *)
let factorize t basis =
  let m = t.Pivot.m in
  if Array.length basis <> m then None
  else if Array.exists (fun j -> j < 0 || j >= t.Pivot.n) basis then None
  else begin
    let bmat = Array.make_matrix m m Rat.zero in
    Array.iteri
      (fun j bj ->
        List.iter
          (fun (i, k) -> bmat.(i).(j) <- Rat.add bmat.(i).(j) k)
          t.Pivot.cols.(bj))
      basis;
    let binv =
      Array.init m (fun i ->
          Array.init m (fun j -> if i = j then Rat.one else Rat.zero))
    in
    try
      for col = 0 to m - 1 do
        let p = ref (-1) in
        for i = col to m - 1 do
          if !p < 0 && not (Rat.is_zero bmat.(i).(col)) then p := i
        done;
        if !p < 0 then raise Exit;
        if !p <> col then begin
          let sw a =
            let tmp = a.(col) in
            a.(col) <- a.(!p);
            a.(!p) <- tmp
          in
          sw bmat;
          sw binv
        end;
        let inv_p = Rat.inv bmat.(col).(col) in
        let scale row =
          for k = 0 to m - 1 do
            row.(k) <- Rat.mul row.(k) inv_p
          done
        in
        scale bmat.(col);
        scale binv.(col);
        for i = 0 to m - 1 do
          if i <> col && not (Rat.is_zero bmat.(i).(col)) then begin
            let f = bmat.(i).(col) in
            let elim dst src =
              for k = 0 to m - 1 do
                if not (Rat.is_zero src.(k)) then
                  dst.(k) <- Rat.sub dst.(k) (Rat.mul f src.(k))
              done
            in
            elim bmat.(i) bmat.(col);
            elim binv.(i) binv.(col)
          end
        done
      done;
      Some binv
    with Exit -> None
  end

(* [Some (status, terminal basis)] when [cand] factorizes to a primal
   feasible basis; [None] (try the next rung) when it is singular or
   infeasible *)
let verify_from ~budget t ~objective ~nvars iter_count cand =
  match factorize t cand with
  | None -> None
  | Some binv ->
      let m = t.Pivot.m in
      let basis = Array.copy cand in
      let xb = Array.make m Rat.zero in
      for i = 0 to m - 1 do
        let row = binv.(i) in
        let acc = ref Rat.zero in
        for j = 0 to m - 1 do
          if not (Rat.is_zero row.(j)) then
            acc := Rat.add !acc (Rat.mul row.(j) t.Pivot.b.(j))
        done;
        xb.(i) <- !acc
      done;
      if Array.exists (fun v -> Rat.sign v < 0) xb then None
      else begin
        let pivots = ref 0 in
        let st =
          Simplex.run_phases ~pivots ~budget t binv basis xb ~objective
            ~nvars iter_count
        in
        if !pivots > 0 then Obs.incr m_verify_repairs 1;
        Some (st, basis)
      end

(* the rungs before the cold exact run: the warm basis, then the float
   instance's terminal basis *)
let solve ?objective ?deadline ?max_iters ?warm_basis ?basis_out lp =
  let nvars = Lp.num_vars lp in
  let rungs ~budget t basis0 iter_count =
    let try_basis = verify_from ~budget t ~objective ~nvars iter_count in
    match Option.bind warm_basis try_basis with
    | Some r -> Some r
    | None -> (
        let cand = Array.copy basis0 in
        match Simplex_f.run ~budget t cand ~objective ~nvars iter_count with
        | Pivot.Optimal | Pivot.Infeasible | Pivot.Unbounded -> try_basis cand
        | Pivot.Aborted -> None
        | Pivot.Timeout ->
            (* re-run exactly under the same budget so the verdict
               (Timeout or not) matches what exact mode would report *)
            None)
  in
  Simplex.solve_with ~rungs ?objective ?deadline ?max_iters ?basis_out lp

let solve_mode ?objective ?deadline ?max_iters ?warm_basis ?basis_out mode lp
    =
  match mode with
  | Simplex.Exact -> Simplex.solve ?objective ?deadline ?max_iters ?basis_out lp
  | Simplex.Float_first ->
      solve ?objective ?deadline ?max_iters ?warm_basis ?basis_out lp
