open Hydra_arith
module Obs = Hydra_obs.Obs

(* registry handles are created once at load time; every update is a
   single flag test when tracing is disabled *)
let m_solves = Obs.counter "simplex.solves"
let m_iterations = Obs.counter "simplex.iterations"
let m_pivots = Obs.counter "simplex.pivots"
let m_degenerate = Obs.counter "simplex.degenerate_pivots"
let m_bland = Obs.counter "simplex.bland_fallbacks"

type status =
  | Feasible of Rat.t array
  | Infeasible
  | Unbounded
  | Timeout

(* Solve-path selection, threaded from the CLI down to every simplex
   call site. [Exact] is the historical all-rational path; [Float_first]
   runs the float shadow simplex (Simplex_f) and verifies/repairs its
   terminal basis exactly (Basis_verify). *)
type mode = Exact | Float_first

let mode_to_string = function Exact -> "exact" | Float_first -> "float-first"

let mode_of_string = function
  | "exact" -> Some Exact
  | "float-first" | "float_first" -> Some Float_first
  | _ -> None

type stats = { iterations : int; rows : int; cols : int }

(* domain-local: concurrent per-view solves in the hydra.par pool must
   not clobber each other's reporting *)
let stats_key =
  Domain.DLS.new_key (fun () -> { iterations = 0; rows = 0; cols = 0 })

let last_stats () = Domain.DLS.get stats_key
let set_stats s = Domain.DLS.set stats_key s

let build_tableau lp =
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
  let cols = Array.make n [] in
  let b = Array.make m Rat.zero in
  let basis = Array.make m (-1) in
  let slack = ref nstruct and art = ref art_first in
  Array.iteri
    (fun i (terms, rel, rhs) ->
      b.(i) <- rhs;
      (* accumulate duplicate variable mentions within a row *)
      let tbl = Hashtbl.create (List.length terms) in
      List.iter
        (fun (v, k) ->
          let prev = try Hashtbl.find tbl v with Not_found -> Rat.zero in
          Hashtbl.replace tbl v (Rat.add prev k))
        terms;
      Hashtbl.iter
        (fun v k ->
          if not (Rat.is_zero k) then cols.(v) <- (i, k) :: cols.(v))
        tbl;
      (match rel with
      | Lp.Le ->
          cols.(!slack) <- [ (i, Rat.one) ];
          basis.(i) <- !slack;
          incr slack
      | Lp.Ge ->
          cols.(!slack) <- [ (i, Rat.minus_one) ];
          incr slack
      | Lp.Eq -> ());
      match rel with
      | Lp.Le -> ()
      | Lp.Eq | Lp.Ge ->
          cols.(!art) <- [ (i, Rat.one) ];
          basis.(i) <- !art;
          incr art)
    rows;
  ({ Pivot.m; n; cols; b; art_first }, basis)

(* The exact arithmetic: every sign question is decided, never Unsure.
   Each Rat product allocates, so the kernels skip zero entries. *)
module Exact_arith = struct
  type t = {
    cols : (int * Rat.t) list array;
    binv : Rat.t array array;
    xb : Rat.t array;
    y : Rat.t array;
    d : Rat.t array;
    mutable c : Rat.t array;
  }

  let of_int c =
    if c > 0 then Pivot.Pos else if c < 0 then Pivot.Neg else Pivot.Zero
  let sign q = of_int (Rat.sign q)

  let set_costs s c = s.c <- c

  let price s basis =
    let m = Array.length s.y in
    Array.fill s.y 0 m Rat.zero;
    for k = 0 to m - 1 do
      let cb = s.c.(basis.(k)) in
      if not (Rat.is_zero cb) then
        let row = s.binv.(k) in
        for i = 0 to m - 1 do
          if not (Rat.is_zero row.(i)) then
            s.y.(i) <- Rat.add s.y.(i) (Rat.mul cb row.(i))
        done
    done

  let reduced_cost s j =
    sign
      (List.fold_left
         (fun acc (i, k) -> Rat.sub acc (Rat.mul s.y.(i) k))
         s.c.(j) s.cols.(j))

  let column s j =
    Array.iteri
      (fun i row ->
        s.d.(i) <-
          List.fold_left
            (fun acc (r, k) -> Rat.add acc (Rat.mul row.(r) k))
            Rat.zero s.cols.(j))
      s.binv

  let column_sign s i = sign s.d.(i)

  let ratio s i l =
    of_int (Rat.compare (Rat.mul s.xb.(i) s.d.(l)) (Rat.mul s.xb.(l) s.d.(i)))

  let basic_sign s i = sign s.xb.(i)

  let artificial_sum s basis ~art_first =
    let sum = ref Rat.zero in
    Array.iteri
      (fun i bi -> if bi >= art_first then sum := Rat.add !sum s.xb.(i))
      basis;
    sign !sum

  (* B^-1 update: scale the pivot row, eliminate it elsewhere *)
  let update_binv s r =
    let m = Array.length s.d in
    let inv_dr = Rat.inv s.d.(r) in
    let prow = s.binv.(r) in
    for kx = 0 to m - 1 do
      prow.(kx) <- Rat.mul prow.(kx) inv_dr
    done;
    for i = 0 to m - 1 do
      let f = s.d.(i) in
      if i <> r && not (Rat.is_zero f) then begin
        let row = s.binv.(i) in
        for kx = 0 to m - 1 do
          if not (Rat.is_zero prow.(kx)) then
            row.(kx) <- Rat.sub row.(kx) (Rat.mul f prow.(kx))
        done
      end
    done

  let pivot s r ~degenerate =
    (* a degenerate step is zero: xb does not move *)
    if not degenerate then begin
      let step = Rat.div s.xb.(r) s.d.(r) in
      Array.iteri
        (fun i di ->
          if i <> r then s.xb.(i) <- Rat.sub s.xb.(i) (Rat.mul step di))
        s.d;
      s.xb.(r) <- step
    end;
    update_binv s r

  let count = function
    | Pivot.Pivot -> Obs.incr m_pivots 1
    | Pivot.Degenerate -> Obs.incr m_degenerate 1
    | Pivot.Bland_fallback -> Obs.incr m_bland 1
end

module Engine = Pivot.Make (Exact_arith)

(* Both phases (and the artificial drive-out between them) from an
   arbitrary primal-feasible basis state [(binv, basis, xb)] — the
   identity/artificial start for a cold solve, a factorized candidate
   basis for Basis_verify. Mutates all three; [basis] holds the terminal
   basis on return. *)
let run_phases ?pivots ~budget (t : Pivot.tableau) binv basis xb ~objective
    ~nvars iter_count =
  let m = t.Pivot.m in
  let s =
    {
      Exact_arith.cols = t.Pivot.cols;
      binv;
      xb;
      y = Array.make m Rat.zero;
      d = Array.make m Rat.zero;
      c = [||];
    }
  in
  match Engine.run ?pivots ~budget t s basis ~objective ~nvars iter_count with
  | Pivot.Optimal ->
      let x = Array.make nvars Rat.zero in
      Array.iteri (fun i bi -> if bi < nvars then x.(bi) <- xb.(i)) basis;
      Feasible x
  | Pivot.Infeasible -> Infeasible
  | Pivot.Unbounded -> Unbounded
  | Pivot.Timeout -> Timeout
  | Pivot.Aborted -> assert false (* exact signs are never Unsure *)

(* One logical solve: the tableau, the budget and the counters around
   [rungs] (Basis_verify's warm-basis and float rungs, none in exact
   mode) and, when no rung delivers, the cold exact run. *)
let solve_with ~rungs ?objective ?deadline ?max_iters ?basis_out lp =
  let budget = { Pivot.deadline; max_iters } in
  let t, basis = build_tableau lp in
  let { Pivot.m; n; _ } = t in
  let nvars = Lp.num_vars lp in
  let iter_count = ref 0 in
  Obs.incr m_solves 1;
  set_stats { iterations = 0; rows = m; cols = n };
  if m = 0 then
    (* no constraints: the origin is feasible, and the problem is unbounded
       exactly when some variable's accumulated net coefficient is
       negative *)
    match objective with
    | Some obj ->
        let net = Array.make nvars Rat.zero in
        List.iter
          (fun (v, c) ->
            if v < 0 || v >= nvars then
              invalid_arg "Simplex.solve: objective variable";
            net.(v) <- Rat.add net.(v) c)
          obj;
        if Array.exists (fun c -> Rat.sign c < 0) net then Unbounded
        else Feasible (Array.make nvars Rat.zero)
    | None -> Feasible (Array.make nvars Rat.zero)
  else begin
    let result, terminal =
      match rungs ~budget t basis iter_count with
      | Some r -> r
      | None ->
          (* identity basis inverse; xb = b *)
          let binv =
            Array.init m (fun i ->
                Array.init m (fun j -> if i = j then Rat.one else Rat.zero))
          in
          let xb = Array.copy t.Pivot.b in
          let st =
            run_phases ~budget t binv basis xb ~objective ~nvars iter_count
          in
          (st, Array.copy basis)
    in
    (match (basis_out, result) with
    | Some r, Feasible _ -> r := Some terminal
    | _ -> ());
    set_stats { iterations = !iter_count; rows = m; cols = n };
    Obs.incr m_iterations !iter_count;
    result
  end

let solve = solve_with ~rungs:(fun ~budget:_ _ _ _ -> None)
