open Hydra_arith
module Obs = Hydra_obs.Obs

let m_float_pivots = Obs.counter "simplex.float_pivots"

(* the same names as the exact instance's: a degenerate pivot or a
   Bland fallback means one thing in either arithmetic *)
let m_degenerate = Obs.counter "simplex.degenerate_pivots"
let m_bland = Obs.counter "simplex.bland_fallbacks"

(* The float arithmetic of the one simplex engine (Pivot.Make; its
   interface states the path-identity contract): every Rat replaced by
   a double, so pivots cost nanoseconds instead of Bigint allocations.
   The basis is held as sparse LU factors plus etas (Factor).

   Every sign question the engine asks is answered from a value [q]
   and a running error bound [err]:

     |q| <= err         -> Zero
     |q| >= gap * err   -> Pos / Neg
     otherwise          -> Unsure: the engine aborts to the exact path

   [err] is a first-order forward error bound assembled from three
   ingredients: a relative slack [eps_c] (summation roundoff plus
   relative drift since the last refactorization), an absolute floor
   [drift_rel * bscale], where [bscale] is the largest entry the basis
   inverse has held since the last refactorization, and a
   backward-error term (a computed solve is an exact solve with a
   slightly perturbed basis; see [btran_back]). All are scaled by
   entries of the inverse, which is never formed: a bound vector
   [rmax] holds, per row, an upper bound on that row's largest entry.
   It starts exact (1 at the identity start; one BTRAN per row for a
   warm start). Each pivot at row r divides row r by d_r and subtracts
   d_i times the new row r from every other row i, so one BTRAN of e_r
   gives the new row r's largest entry exactly and every other row's
   bound grows by |d_i| times it. The bounds grow additively, never
   compounding, since a row's bound is recomputed whenever that row
   leaves.

   The absolute floor is what a purely relative band cannot express: a
   true-zero inverse entry surfaces as a lone ~1e-16 rounding crumb
   whose computation looks perfectly well-conditioned — relative to its
   own mass it is a confident nonzero, relative to the matrix it came
   from it is noise. Drift itself is kept small (so these bounds stay
   tight) by refactorizing the basis from the original column data
   every [Factor.refactor_every] pivots.

   Bounds carried through the factors themselves, the same sweeps over
   |L|, |U| and |eta| applied to magnitudes, do not work here: they sum
   every path through the triangular factors, cancelled or not, and
   reach ~1e9 times the input's mass on JOB's cast_info basis.

   The classification is a path-fidelity heuristic, not a soundness
   device: an answer the bound wrongly trusts (true values below the
   floor, adversarial denominators — see the pinned repair test) only
   sends Basis_verify a different terminal basis to repair or reject. *)

(* per-input relative slack: summation roundoff plus the relative part
   of the drift accumulated over at most [Factor.refactor_every]
   pivots *)
let eps_c = 1e-14

(* absolute drift floor for basis inverse entries, as a fraction of
   the largest entry magnitude since the last refactorization *)
let drift_rel = 1e-13

(* absolute drift floor for basic-solution entries, as a fraction of
   1 + the basic solution's infinity norm *)
let xerr_rel = 1e-12

(* a decision quantity must clear its error bound by this factor
   before its sign is trusted *)
let gap = 1e3

(* classify decision quantity [q] carrying forward error bound [err] *)
let classify q err =
  let a = Float.abs q in
  if a <= err then Pivot.Zero
  else if a >= gap *. err then if q < 0.0 then Pivot.Neg else Pivot.Pos
  else Pivot.Unsure

(* the factorization's kernels, over unboxed float arrays *)
module Float_num = struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let add = ( +. )
  let zero_at (a : float array) i = a.(i) = 0.0
  let magnitude_at (a : float array) i = Float.abs a.(i)

  let divide (a : float array) lo hi d =
    for k = lo to hi - 1 do
      a.(k) <- a.(k) /. d
    done

  let schur (v : float array) (rows : int array) lo hi (l : float array) a =
    for e = lo to hi - 1 do
      let x = l.(rows.(e)) in
      if x <> 0.0 then v.(e) <- v.(e) -. (x *. a)
    done

  let scatter (w : float array) (idx : int array) (vals : float array) lo hi =
    for k = lo to hi - 1 do
      w.(idx.(k)) <- vals.(k)
    done

  let gather (src : float array) (idx : int array) (dst : float array) =
    for k = 0 to Array.length idx - 1 do
      dst.(k) <- src.(idx.(k))
    done

  let col_ops ~rev (w : float array) (idx : int array) (vals : float array)
      (start : int array) n =
    for e' = 0 to n - 1 do
      let e = if rev then n - 1 - e' else e' in
      let lo = start.(e) in
      let p = idx.(lo) in
      let x = w.(p) in
      if x <> 0.0 then begin
        let x = x /. vals.(lo) in
        w.(p) <- x;
        for k = lo + 1 to start.(e + 1) - 1 do
          let i = idx.(k) in
          w.(i) <- w.(i) -. (vals.(k) *. x)
        done
      end
    done

  let row_op (w : float array) (idx : int array) (vals : float array) lo hi =
    let p = idx.(lo) in
    let s = ref w.(p) in
    for k = lo + 1 to hi - 1 do
      s := !s -. (vals.(k) *. w.(idx.(k)))
    done;
    w.(p) <- !s /. vals.(lo)

  let eta_of (d : float array) r =
    let n = ref 1 in
    for i = 0 to Array.length d - 1 do
      if i <> r && d.(i) <> 0.0 then incr n
    done;
    let idx = Array.make !n r and vals = Array.make !n d.(r) in
    let k = ref 1 in
    for i = 0 to Array.length d - 1 do
      if i <> r && d.(i) <> 0.0 then begin
        idx.(!k) <- i;
        vals.(!k) <- d.(i);
        incr k
      end
    done;
    (idx, vals)
end

module LU = Factor.Make (Float_num)

module Float_arith = struct
  type ystate = Stale | Fresh | Carried

  type t = {
    (* the tableau's columns in doubles: rows, values, and the sum of
       |values| *)
    cidx : int array array;
    cval : float array array;
    fnorm : float array;
    fb : float array;
    basis : int array;  (* the engine's basis, read by [refactor] *)
    mutable lu : LU.t;
    xb : float array;
    mutable c : float array;
    (* the duals c_B . B^-1, each with its error bound, and whether they
       are a fresh BTRAN, carried through pivots since one, or stale *)
    y : float array;
    yerr : float array;
    mutable ystate : ystate;
    d : float array;
    derr : float array;
    mutable dresid : float;  (* [d]'s own backward error, below *)
    (* row [rho_row] of the basis inverse, from one BTRAN; [rho_row] is
       -1 once a pivot makes it stale *)
    rho : float array;
    mutable rho_row : int;
    mutable rho_err : float;  (* [rho]'s backward-error term, below *)
    (* per row of the basis inverse: an upper bound on its largest
       |entry| *)
    rmax : float array;
    (* per basis position: how far, in sum of |entries|, the column the
       etas represent there may be off the true one *)
    drift : float array;
    (* per column: the last reduced cost and dual-phase row entry
       computed, each with its error bound *)
    rc : float array;
    rcerr : float array;
    alpha : float array;
    alphaerr : float array;
    (* largest [rmax] entry since the last refactorization: scales the
       absolute drift floor on inverse entries *)
    mutable bscale : float;
    (* 1 + the basic solution's infinity norm, refreshed after every
       pivot: scales the absolute drift floor on its entries *)
    mutable xscale : float;
  }

  let bump_bscale s v = if v > s.bscale then s.bscale <- v

  let refresh_xscale s =
    let sc = ref 1.0 in
    for i = 0 to Array.length s.xb - 1 do
      let a = Float.abs s.xb.(i) in
      if a > !sc then sc := a
    done;
    s.xscale <- !sc

  let factorize cidx cval basis =
    (* a singular float basis means the shadow lost the plot, or a warm
       start's basis is singular: either way exact arithmetic decides *)
    try LU.factorize ~m:(Array.length basis) cidx cval basis
    with LU.Singular -> raise Pivot.Undecided

  let largest (v : float array) =
    let a = ref 0.0 in
    for i = 0 to Array.length v - 1 do
      a := Float.max !a (Float.abs v.(i))
    done;
    !a

  (* The backward-error terms. A computed FTRAN x solves (B + dB) x = a
     and a computed BTRAN y solves y (B + dB) = c, where column k of dB
     (B_k the basis column at position k) is within [eps_c] of |B_k|
     plus the column's drift, in sum of |entries|; so x is off by
     B^-1 dB x, entry i by at most rmax_i times the sum over k of
     (eps_c |B_k| + drift_k) |x_k| ([column] sums it), and every entry
     of y by at most [btran_back]. *)
  let btran_back s (y : float array) =
    let ymax = largest y and acc = ref 0.0 in
    for k = 0 to Array.length s.basis - 1 do
      let idx = s.cidx.(s.basis.(k)) and vals = s.cval.(s.basis.(k)) in
      let yb = ref 0.0 in
      for e = 0 to Array.length idx - 1 do
        yb := !yb +. Float.abs (y.(idx.(e)) *. vals.(e))
      done;
      acc := !acc +. (s.rmax.(k) *. ((eps_c *. !yb) +. (ymax *. s.drift.(k))))
    done;
    !acc

  (* rho = e_r . B^-1 by one BTRAN, without its error term *)
  let unit_btran s r =
    Array.fill s.rho 0 (Array.length s.rho) 0.0;
    s.rho.(r) <- 1.0;
    LU.btran s.lu s.rho

  (* rho = row r of the basis inverse *)
  let inverse_row s r =
    if s.rho_row <> r then begin
      unit_btran s r;
      s.rho_row <- r;
      s.rho_err <- btran_back s s.rho
    end

  (* the cold start is slacks and artificials, B = I: xb = b and every
     row of the inverse has largest entry 1 *)
  let create (t : Pivot.tableau) basis =
    let m = t.Pivot.m and n = t.Pivot.n in
    let fb = Array.map Rat.to_float t.Pivot.b in
    let cval = Array.map (Array.map Rat.to_float) t.Pivot.cval in
    let s =
      {
        cidx = t.Pivot.cidx;
        cval;
        fnorm = Array.map (Array.fold_left (fun a v -> a +. Float.abs v) 0.0) cval;
        fb;
        basis;
        lu = factorize t.Pivot.cidx cval basis;
        xb = Array.copy fb;
        c = [||];
        y = Array.make m 0.0;
        yerr = Array.make m 0.0;
        ystate = Stale;
        d = Array.make m 0.0;
        derr = Array.make m 0.0;
        dresid = 0.0;
        rho = Array.make m 0.0;
        rho_row = -1;
        rho_err = 0.0;
        rmax = Array.make m 1.0;
        drift = Array.make m 0.0;
        rc = Array.make n 0.0;
        rcerr = Array.make n 0.0;
        alpha = Array.make n 0.0;
        alphaerr = Array.make n 0.0;
        bscale = 1.0;
        xscale = 1.0;
      }
    in
    refresh_xscale s;
    s

  (* xb = B^-1 b from the current factors *)
  let solve_xb s =
    Array.blit s.fb 0 s.xb 0 (Array.length s.xb);
    LU.ftran s.lu s.xb;
    refresh_xscale s;
    (* basic values that are exactly zero in the exact solver (pinned
       degenerate rows) come back from B^-1 b as ~1e-13 noise; snap
       them to 0.0 so degenerate ratio-test ties keep resolving by
       index, exactly as the exact solver resolves them *)
    let snap = xerr_rel *. s.xscale in
    for i = 0 to Array.length s.xb - 1 do
      if Float.abs s.xb.(i) <= snap then s.xb.(i) <- 0.0
    done

  (* a warm start factors a hint: its basic values, and its inverse's
     row bounds exactly, one BTRAN per row *)
  let warm s =
    solve_xb s;
    for r = 0 to Array.length s.rmax - 1 do
      unit_btran s r;
      s.rmax.(r) <- largest s.rho
    done;
    s.bscale <- Float.max 1.0 (largest s.rmax)

  (* drift control: factor the basis afresh from the original (exactly
     representable) column data, then recompute xb *)
  let refactor s =
    s.lu <- factorize s.cidx s.cval s.basis;
    s.rho_row <- -1;
    s.ystate <- Stale;
    Array.fill s.drift 0 (Array.length s.drift) 0.0;
    s.bscale <- Float.max 1.0 (largest s.rmax);
    solve_xb s

  let set_costs s c =
    s.c <- Array.map Rat.to_float c;
    s.ystate <- Stale

  (* y = cB . B^-1 by one BTRAN; entry i sums |c_k| times an inverse
     entry of row k, each within its floor plus a relative slack, so with
     the backward-error term the bound is the same for every i *)
  let reprice s =
    let bfloor = drift_rel *. s.bscale in
    let err = ref 0.0 in
    for k = 0 to Array.length s.basis - 1 do
      let cb = s.c.(s.basis.(k)) in
      s.y.(k) <- cb;
      err := !err +. (Float.abs cb *. (bfloor +. (eps_c *. s.rmax.(k))))
    done;
    LU.btran s.lu s.y;
    Array.fill s.yerr 0 (Array.length s.yerr) (!err +. btran_back s s.y);
    s.ystate <- Fresh

  (* y carried through the last pivot (see [pivot]) needs no BTRAN *)
  let price s _basis = if s.ystate = Stale then reprice s

  (* rc_j = c_j - y . A_j, with its error bound *)
  let reduce s j =
    let rc = ref s.c.(j) and err = ref (eps_c *. Float.abs s.c.(j)) in
    let idx = s.cidx.(j) and vals = s.cval.(j) in
    for e = 0 to Array.length idx - 1 do
      let i = idx.(e) and k = vals.(e) in
      rc := !rc -. (s.y.(i) *. k);
      err :=
        !err +. ((s.yerr.(i) +. (eps_c *. Float.abs s.y.(i))) *. Float.abs k)
    done;
    s.rc.(j) <- !rc;
    s.rcerr.(j) <- !err

  (* a carried y's bound is wider than a fresh one's: an answer it leaves
     Unsure is asked again of a fresh BTRAN, so carrying never aborts a
     run that fresh pricing would finish *)
  let reduced_cost s j =
    reduce s j;
    match classify s.rc.(j) s.rcerr.(j) with
    | Pivot.Unsure when s.ystate = Carried ->
        reprice s;
        reduce s j;
        classify s.rc.(j) s.rcerr.(j)
    | sign -> sign

  (* d = B^-1 . A_j by one FTRAN; d_i sums entries of row i of the
     inverse, each contributing its absolute floor plus a relative
     slack, times |A_j|, and the backward-error term *)
  let column s j =
    let m = Array.length s.d in
    Array.fill s.d 0 m 0.0;
    let idx = s.cidx.(j) and vals = s.cval.(j) in
    for e = 0 to Array.length idx - 1 do
      s.d.(idx.(e)) <- vals.(e)
    done;
    let mass = s.fnorm.(j) in
    LU.ftran s.lu s.d;
    let resid = ref 0.0 and inherited = ref 0.0 in
    for k = 0 to m - 1 do
      let a = Float.abs s.d.(k) in
      resid := !resid +. (eps_c *. s.fnorm.(s.basis.(k)) *. a);
      inherited := !inherited +. (s.drift.(k) *. a)
    done;
    s.dresid <- !resid;
    let bfloor = drift_rel *. s.bscale and back = !resid +. !inherited in
    for i = 0 to m - 1 do
      s.derr.(i) <- (bfloor *. mass) +. (s.rmax.(i) *. ((eps_c *. mass) +. back))
    done

  let column_sign s i = classify s.d.(i) s.derr.(i)
  let column_entry s i = (s.d.(i), s.derr.(i))
  let price_entry s i = (s.y.(i), s.yerr.(i))

  (* cross-multiplied, so both ratios keep their error bounds; the
     absolute drift floor on basic values covers the roundoff of the xb
     updates themselves *)
  let ratio s i l =
    let xerr = xerr_rel *. s.xscale in
    let xb = s.xb and d = s.d and derr = s.derr in
    classify
      ((xb.(i) *. d.(l)) -. (xb.(l) *. d.(i)))
      (((Float.abs xb.(i) +. xerr) *. derr.(l))
      +. ((Float.abs xb.(l) +. xerr) *. derr.(i))
      +. (xerr *. (Float.abs d.(l) +. Float.abs d.(i))))

  let basic_sign s i = classify s.xb.(i) (xerr_rel *. s.xscale)

  let compare_basic s i l =
    classify (s.xb.(i) -. s.xb.(l)) (2.0 *. xerr_rel *. s.xscale)

  (* alpha_rj = (e_r . B^-1) . A_j, bounded entry by entry like
     [column]; row r of the inverse is kept until the next pivot. Only
     the dual phase asks, and it prices afresh after each of its pivots:
     carried through them, y's bound made two of JOB's warm runs abort *)
  let row_entry s r j =
    inverse_row s r;
    s.ystate <- Stale;
    let bfloor = drift_rel *. s.bscale +. s.rho_err in
    let a = ref 0.0 and err = ref 0.0 in
    let idx = s.cidx.(j) and vals = s.cval.(j) in
    for e = 0 to Array.length idx - 1 do
      let i = idx.(e) and k = vals.(e) in
      a := !a +. (s.rho.(i) *. k);
      err := !err +. ((bfloor +. (eps_c *. Float.abs s.rho.(i))) *. Float.abs k)
    done;
    s.alpha.(j) <- !a;
    s.alphaerr.(j) <- !err;
    classify !a !err

  (* the sign of d_k alpha_j - d_j alpha_k, cross-multiplied like
     [ratio] so both quotients keep their error bounds *)
  let dual_ratio s j k =
    let rc = s.rc and rcerr = s.rcerr and al = s.alpha and alerr = s.alphaerr in
    classify
      ((rc.(k) *. al.(j)) -. (rc.(j) *. al.(k)))
      ((Float.abs rc.(k) *. alerr.(j))
      +. (rcerr.(k) *. Float.abs al.(j))
      +. (Float.abs rc.(j) *. alerr.(k))
      +. (rcerr.(j) *. Float.abs al.(k)))

  let artificial_sum s basis ~art_first =
    let xerr = xerr_rel *. s.xscale in
    let art = ref 0.0 and arterr = ref xerr in
    for i = 0 to Array.length basis - 1 do
      if basis.(i) >= art_first then begin
        art := !art +. s.xb.(i);
        arterr := !arterr +. xerr +. (eps_c *. Float.abs s.xb.(i))
      end
    done;
    classify !art !arterr

  (* the inverse's row bounds after the pivot at row r: the new row r
     is the old one over d_r, and row i loses d_i times it *)
  let update_rmax s r =
    inverse_row s r;
    let mr = largest s.rho /. Float.abs s.d.(r) in
    for i = 0 to Array.length s.d - 1 do
      let di = s.d.(i) in
      if i <> r && di <> 0.0 then begin
        s.rmax.(i) <- s.rmax.(i) +. (Float.abs di *. mr);
        bump_bscale s s.rmax.(i)
      end
    done;
    s.rmax.(r) <- mr;
    bump_bscale s mr

  (* The duals after the pivot bringing column q in at row r: y' = y +
     theta rho, theta = d_q / d_r, with rho the old inverse's row r, as
     [update_rmax] left it. Entry i's bound grows by the error of theta
     rho_i (rho_i's bound as in [row_entry]) and the update's roundoff.
     A refactorization resets the bound: y is then stale and repriced. *)
  let carry_duals s r q =
    reduce s q;
    let dr = s.d.(r) and drerr = s.derr.(r) in
    match classify dr drerr with
    | Pivot.Zero | Pivot.Unsure -> s.ystate <- Stale
    | Pivot.Pos | Pivot.Neg ->
        let theta = s.rc.(q) /. dr in
        let at = Float.abs theta in
        let terr =
          ((s.rcerr.(q) +. (at *. drerr)) /. Float.abs dr) +. (eps_c *. at)
        in
        let rfloor = (drift_rel *. s.bscale) +. s.rho_err in
        for i = 0 to Array.length s.y - 1 do
          let ri = s.rho.(i) in
          let yi = s.y.(i) +. (theta *. ri) in
          s.y.(i) <- yi;
          s.yerr.(i) <-
            s.yerr.(i)
            +. (at *. (rfloor +. (eps_c *. Float.abs ri)))
            +. (terr *. Float.abs ri)
            +. (eps_c *. Float.abs yi)
        done;
        s.ystate <- Carried

  let pivot s r q ~degenerate =
    (* the exact step is xb_r / d_r, zero exactly when xb_r is: pin the
       float step to 0 on degenerate pivots so xb mirrors the exact
       updates bit-for-bit in that case *)
    let step = if degenerate then 0.0 else s.xb.(r) /. s.d.(r) in
    for i = 0 to Array.length s.xb - 1 do
      if i <> r then s.xb.(i) <- s.xb.(i) -. (step *. s.d.(i))
    done;
    s.xb.(r) <- step;
    update_rmax s r;
    if s.ystate <> Stale then carry_duals s r q;
    (* the eta represents the entering column as B d, off the true one
       by d's own backward error; what d inherited from earlier etas'
       drift is left out, since summing it in magnitudes compounds
       over every eta, and then aborts bench solve's float run *)
    s.drift.(r) <- s.dresid;
    LU.update s.lu r s.d;
    s.rho_row <- -1;
    refresh_xscale s;
    if LU.etas s.lu >= Factor.refactor_every then refactor s

  let count = function
    | Pivot.Pivot -> Obs.incr m_float_pivots 1
    | Pivot.Degenerate -> Obs.incr m_degenerate 1
    | Pivot.Bland_fallback -> Obs.incr m_bland 1
end

module Engine = Pivot.Make (Float_arith)

let run ?(warm = false) ~budget t basis ~objective iter_count =
  Obs.with_span "lp.float" @@ fun () ->
  match
    let s = Float_arith.create t basis in
    if warm then Float_arith.warm s;
    s
  with
  | exception Pivot.Undecided -> Pivot.Aborted
  | s -> Engine.run ~repair:warm ~budget t s basis ~objective iter_count
