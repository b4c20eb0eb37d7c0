open Hydra_arith
module Obs = Hydra_obs.Obs

(* registry handles are created once at load time; every update is a
   single flag test when tracing is disabled *)
let m_pivots = Obs.counter "simplex.pivots"
let m_degenerate = Obs.counter "simplex.degenerate_pivots"
let m_bland = Obs.counter "simplex.bland_fallbacks"
let m_verify_repairs = Obs.counter "simplex.verify_repairs"

(* the factorization's kernels over rationals; they skip zero entries,
   since every Rat product allocates *)
module Rat_num = struct
  type t = Rat.t

  let zero = Rat.zero
  let one = Rat.one
  let add = Rat.add
  let zero_at a i = Rat.is_zero a.(i)
  let magnitude_at a i = Float.abs (Rat.to_float a.(i))
  let divide_by x d = if Rat.equal d Rat.one then x else Rat.div x d

  let divide a lo hi d =
    for k = lo to hi - 1 do
      a.(k) <- divide_by a.(k) d
    done

  let schur v rows lo hi l a =
    for e = lo to hi - 1 do
      let x = l.(rows.(e)) in
      if not (Rat.is_zero x) then v.(e) <- Rat.sub v.(e) (Rat.mul x a)
    done

  let scatter w idx vals lo hi =
    for k = lo to hi - 1 do
      w.(idx.(k)) <- vals.(k)
    done

  let gather src idx dst = Array.iteri (fun k i -> dst.(k) <- src.(i)) idx

  let col_ops ~rev w idx vals start n =
    for e' = 0 to n - 1 do
      let e = if rev then n - 1 - e' else e' in
      let lo = start.(e) in
      let p = idx.(lo) in
      if not (Rat.is_zero w.(p)) then begin
        let x = divide_by w.(p) vals.(lo) in
        w.(p) <- x;
        for k = lo + 1 to start.(e + 1) - 1 do
          let i = idx.(k) in
          w.(i) <- Rat.sub w.(i) (Rat.mul vals.(k) x)
        done
      end
    done

  let row_op w idx vals lo hi =
    let p = idx.(lo) in
    let s = ref w.(p) in
    for k = lo + 1 to hi - 1 do
      let i = idx.(k) in
      if not (Rat.is_zero w.(i)) then s := Rat.sub !s (Rat.mul vals.(k) w.(i))
    done;
    w.(p) <- (if Rat.is_zero !s then !s else divide_by !s vals.(lo))

  let eta_of d r =
    let idx =
      List.filter
        (fun i -> i <> r && not (Rat.is_zero d.(i)))
        (List.init (Array.length d) Fun.id)
    in
    (Array.of_list (r :: idx), Array.of_list (d.(r) :: List.map (Array.get d) idx))
end

module LU = Factor.Make (Rat_num)

(* The exact arithmetic: every sign question is decided, never Unsure. *)
module Exact_arith = struct
  type t = {
    cidx : int array array;
    cval : Rat.t array array;
    basis : int array;  (* the engine's basis, read when refactorizing *)
    mutable lu : LU.t;
    xb : Rat.t array;
    y : Rat.t array;
    d : Rat.t array;
    rho : Rat.t array;  (* row [rho_row] of B^-1; -1 once stale *)
    mutable rho_row : int;
    mutable c : Rat.t array;
    rc : Rat.t array;  (* per column: the last reduced cost computed *)
    alpha : Rat.t array;  (* per column: the last dual-phase row entry *)
  }

  let of_int c =
    if c > 0 then Pivot.Pos else if c < 0 then Pivot.Neg else Pivot.Zero
  let sign q = of_int (Rat.sign q)

  let set_costs s c = s.c <- c

  (* y = cB . B^-1 by one BTRAN *)
  let price s basis =
    Array.iteri (fun k bk -> s.y.(k) <- s.c.(bk)) basis;
    LU.btran s.lu s.y

  (* w . A_j *)
  let dot s w j =
    let idx = s.cidx.(j) and vals = s.cval.(j) and acc = ref Rat.zero in
    for e = 0 to Array.length idx - 1 do
      let wi = w.(idx.(e)) in
      if not (Rat.is_zero wi) then acc := Rat.add !acc (Rat.mul wi vals.(e))
    done;
    !acc

  let reduced_cost s j =
    let rc = Rat.sub s.c.(j) (dot s s.y j) in
    s.rc.(j) <- rc;
    sign rc

  (* d = B^-1 . A_j by one FTRAN *)
  let column s j =
    Array.fill s.d 0 (Array.length s.d) Rat.zero;
    Array.iteri (fun e r -> s.d.(r) <- s.cval.(j).(e)) s.cidx.(j);
    LU.ftran s.lu s.d

  let column_sign s i = sign s.d.(i)

  let ratio s i l =
    of_int (Rat.compare (Rat.mul s.xb.(i) s.d.(l)) (Rat.mul s.xb.(l) s.d.(i)))

  let basic_sign s i = sign s.xb.(i)

  let compare_basic s i l = of_int (Rat.compare s.xb.(i) s.xb.(l))

  (* alpha_rj = (e_r . B^-1) . A_j, the row from one BTRAN kept until
     the next pivot *)
  let row_entry s r j =
    if s.rho_row <> r then begin
      Array.fill s.rho 0 (Array.length s.rho) Rat.zero;
      s.rho.(r) <- Rat.one;
      LU.btran s.lu s.rho;
      s.rho_row <- r
    end;
    let a = dot s s.rho j in
    s.alpha.(j) <- a;
    sign a

  let dual_ratio s j k =
    of_int
      (Rat.compare
         (Rat.mul s.rc.(k) s.alpha.(j))
         (Rat.mul s.rc.(j) s.alpha.(k)))

  let artificial_sum s basis ~art_first =
    let sum = ref Rat.zero in
    Array.iteri
      (fun i bi -> if bi >= art_first then sum := Rat.add !sum s.xb.(i))
      basis;
    sign !sum

  let pivot s r _q ~degenerate =
    (* a degenerate step is zero: xb does not move *)
    if not degenerate then begin
      let step = Rat.div s.xb.(r) s.d.(r) in
      Array.iteri
        (fun i di ->
          if i <> r && not (Rat.is_zero di) then
            s.xb.(i) <- Rat.sub s.xb.(i) (Rat.mul step di))
        s.d;
      s.xb.(r) <- step
    end;
    LU.update s.lu r s.d;
    s.rho_row <- -1;
    (* exact etas never drift, but the file grows: refactor to keep
       FTRAN and BTRAN short *)
    if LU.etas s.lu >= Factor.refactor_every then
      s.lu <- LU.factorize ~m:(Array.length s.basis) s.cidx s.cval s.basis

  let count = function
    | Pivot.Pivot -> Obs.incr m_pivots 1
    | Pivot.Degenerate -> Obs.incr m_degenerate 1
    | Pivot.Bland_fallback -> Obs.incr m_bland 1
end

module Engine = Pivot.Make (Exact_arith)

type run = { outcome : Pivot.outcome; basis : int array; xb : Rat.t array }

(* Both phases (and the artificial drive-out between them) from
   [basis], factored as [lu], with basic values [xb]; mutates all three.
   The state must be primal feasible unless [repair] runs the dual phase
   first. *)
let run_phases ?pivots ?repair ~budget (t : Pivot.tableau) lu basis xb
    ~objective iter_count =
  let m = t.Pivot.m and n = t.Pivot.n in
  let s =
    {
      Exact_arith.cidx = t.Pivot.cidx;
      cval = t.Pivot.cval;
      basis;
      lu;
      xb;
      y = Array.make m Rat.zero;
      d = Array.make m Rat.zero;
      rho = Array.make m Rat.zero;
      rho_row = -1;
      c = [||];
      rc = Array.make n Rat.zero;
      alpha = Array.make n Rat.zero;
    }
  in
  let outcome =
    Engine.run ?pivots ?repair ~budget t s basis ~objective iter_count
  in
  { outcome; basis; xb }

let factorize t basis =
  try Some (LU.factorize ~m:t.Pivot.m t.Pivot.cidx t.Pivot.cval basis)
  with LU.Singular -> None

let cold ~budget (t : Pivot.tableau) basis ~objective iter_count =
  Obs.with_span "lp.exact" @@ fun () ->
  (* the slack/artificial start: B = I, so xb = b *)
  let lu = Option.get (factorize t basis) in
  run_phases ~budget t lu basis (Array.copy t.Pivot.b) ~objective iter_count

let verify ?(hint = false) ~budget t ~objective iter_count cand =
  Obs.with_span "lp.verify" @@ fun () ->
  match factorize t cand with
  | None -> None
  | Some lu ->
      let xb = Array.copy t.Pivot.b in
      LU.ftran lu xb;
      if (not hint) && Array.exists (fun v -> Rat.sign v < 0) xb then None
      else begin
        let pivots = ref 0 in
        let basis = Array.copy cand in
        match
          run_phases ~pivots ~repair:hint ~budget t lu basis xb ~objective
            iter_count
        with
        | { outcome = Pivot.Aborted; _ } ->
            (* an exact run only aborts when the dual repair gave up *)
            None
        | r ->
            if !pivots > 0 then Obs.incr m_verify_repairs 1;
            Some r
      end
