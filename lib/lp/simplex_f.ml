open Hydra_arith
module Obs = Hydra_obs.Obs

let m_float_pivots = Obs.counter "simplex.float_pivots"

(* The float arithmetic of the one simplex engine (Pivot.Make; its
   interface states the path-identity contract): every Rat replaced by
   a double, so pivots cost nanoseconds instead of Bigint allocations.

   Every sign question the engine asks is answered from a value [q]
   and a running error bound [err]:

     |q| <= err         -> Zero
     |q| >= gap * err   -> Pos / Neg
     otherwise          -> Unsure: the engine aborts to the exact path

   [err] is a first-order forward error bound assembled from two
   ingredients per input: a relative slack [eps_c] (summation roundoff
   plus relative drift since the last refactorization) and, for basis
   inverse entries, an absolute floor [drift_rel * bscale] where
   [bscale] tracks the largest |entry| the inverse has held since the
   last refactorization. The absolute floor is what a purely relative
   band cannot express: a true-zero inverse entry surfaces as a lone
   ~1e-16 rounding crumb whose computation looks perfectly
   well-conditioned — relative to its own mass it is a confident
   nonzero, relative to the matrix it came from it is noise. Drift
   itself is kept small (so these bounds stay tight) by refactorizing —
   re-inverting the basis from the original column data — every
   [refactor_every] pivots.

   The classification is a path-fidelity heuristic, not a soundness
   device: an answer the bound wrongly trusts (true values below the
   floor, adversarial denominators — see the pinned repair test) only
   sends Basis_verify a different terminal basis to repair or reject. *)

(* per-input relative slack: summation roundoff plus the relative part
   of the drift accumulated over at most [refactor_every] pivots *)
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

(* Rebuild the basis inverse from the original column data every this
   many pivots. Product-form updates accumulate roundoff linearly in
   the pivot count; on the degenerate LPs the pipeline emits (thousands
   of pivots) that drift would eventually swamp the error bounds and
   force a spurious exact fallback. A fresh Gauss-Jordan inversion
   costs O(m^3) flops — trivial next to the rational work it avoids —
   and resets the drift to a few ulps. *)
let refactor_every = 64

(* classify decision quantity [q] carrying forward error bound [err] *)
let classify q err =
  let a = Float.abs q in
  if a <= err then Pivot.Zero
  else if a >= gap *. err then if q < 0.0 then Pivot.Neg else Pivot.Pos
  else Pivot.Unsure

module Float_arith = struct
  type t = {
    fcols : (int * float) list array;
    fb : float array;
    basis : int array;  (* the engine's basis, read by [refactor] *)
    binv : float array array;
    xb : float array;
    mutable c : float array;
    y : float array;
    yerr : float array;
    d : float array;
    derr : float array;
    (* per column: the last reduced cost and dual-phase row entry
       computed, each with its error bound *)
    rc : float array;
    rcerr : float array;
    alpha : float array;
    alphaerr : float array;
    (* largest |entry| the basis inverse has held since the last
       refactorization: scales the absolute drift floor on its entries *)
    mutable bscale : float;
    (* 1 + the basic solution's infinity norm, refreshed after every
       pivot: scales the absolute drift floor on its entries *)
    mutable xscale : float;
    mutable since_refactor : int;
  }

  let bump_bscale s v =
    let a = Float.abs v in
    if a > s.bscale then s.bscale <- a

  let refresh_xscale s =
    let sc = ref 1.0 in
    for i = 0 to Array.length s.xb - 1 do
      let a = Float.abs s.xb.(i) in
      if a > !sc then sc := a
    done;
    s.xscale <- !sc

  let create (t : Pivot.tableau) basis =
    let m = t.Pivot.m and n = t.Pivot.n in
    let fb = Array.map Rat.to_float t.Pivot.b in
    let s =
      {
        fcols = Array.map (List.map (fun (i, k) -> (i, Rat.to_float k))) t.cols;
        fb;
        basis;
        binv = Pivot.identity m ~zero:0.0 ~one:1.0;
        xb = Array.copy fb;
        c = [||];
        y = Array.make m 0.0;
        yerr = Array.make m 0.0;
        d = Array.make m 0.0;
        derr = Array.make m 0.0;
        rc = Array.make n 0.0;
        rcerr = Array.make n 0.0;
        alpha = Array.make n 0.0;
        alphaerr = Array.make n 0.0;
        bscale = 1.0;
        xscale = 1.0;
        since_refactor = 0;
      }
    in
    refresh_xscale s;
    s

  (* drift control: rebuild binv = B^{-1} by Gauss-Jordan with partial
     pivoting on the original (exactly representable) column data, then
     recompute xb = binv . b *)
  let refactor s =
    s.since_refactor <- 0;
    let m = Array.length s.xb in
    let a = Array.make_matrix m m 0.0 in
    for k = 0 to m - 1 do
      List.iter
        (fun (i, v) -> a.(i).(k) <- a.(i).(k) +. v)
        s.fcols.(s.basis.(k))
    done;
    let inv = Pivot.identity m ~zero:0.0 ~one:1.0 in
    for col = 0 to m - 1 do
      let piv = ref col in
      for i = col + 1 to m - 1 do
        if Float.abs a.(i).(col) > Float.abs a.(!piv).(col) then piv := i
      done;
      (* a vanishing float pivot means the shadow lost the plot, or a
         warm start's basis is singular: either way exact arithmetic
         decides *)
      if Float.abs a.(!piv).(col) = 0.0 then raise Pivot.Undecided;
      if !piv <> col then begin
        let t = a.(col) in
        a.(col) <- a.(!piv);
        a.(!piv) <- t;
        let t = inv.(col) in
        inv.(col) <- inv.(!piv);
        inv.(!piv) <- t
      end;
      let d = 1.0 /. a.(col).(col) in
      let arow = a.(col) and irow = inv.(col) in
      for j = 0 to m - 1 do
        arow.(j) <- arow.(j) *. d;
        irow.(j) <- irow.(j) *. d
      done;
      for i = 0 to m - 1 do
        if i <> col then begin
          let f = a.(i).(col) in
          if f <> 0.0 then begin
            let ai = a.(i) and ii = inv.(i) in
            for j = 0 to m - 1 do
              ai.(j) <- ai.(j) -. (f *. arow.(j));
              ii.(j) <- ii.(j) -. (f *. irow.(j))
            done
          end
        end
      done
    done;
    for i = 0 to m - 1 do
      Array.blit inv.(i) 0 s.binv.(i) 0 m
    done;
    s.bscale <- 1.0;
    for i = 0 to m - 1 do
      let row = s.binv.(i) in
      for j = 0 to m - 1 do
        bump_bscale s row.(j)
      done
    done;
    for i = 0 to m - 1 do
      let row = s.binv.(i) in
      let acc = ref 0.0 in
      for j = 0 to m - 1 do
        acc := !acc +. (row.(j) *. s.fb.(j))
      done;
      s.xb.(i) <- !acc
    done;
    refresh_xscale s;
    (* basic values that are exactly zero in the exact solver (pinned
       degenerate rows) come back from binv . b as ~1e-13 noise; snap
       them to 0.0 so degenerate ratio-test ties keep resolving by
       index, exactly as the exact solver resolves them *)
    let snap = xerr_rel *. s.xscale in
    for i = 0 to m - 1 do
      if Float.abs s.xb.(i) <= snap then s.xb.(i) <- 0.0
    done

  let set_costs s c = s.c <- Array.map Rat.to_float c

  (* y = cB . Binv, with a forward error bound per entry *)
  let price s basis =
    let m = Array.length s.y in
    Array.fill s.y 0 m 0.0;
    Array.fill s.yerr 0 m 0.0;
    let bfloor = drift_rel *. s.bscale in
    for k = 0 to m - 1 do
      let cb = s.c.(basis.(k)) in
      if cb <> 0.0 then begin
        let row = s.binv.(k) in
        let acb = Float.abs cb in
        for i = 0 to m - 1 do
          s.y.(i) <- s.y.(i) +. (cb *. row.(i));
          s.yerr.(i) <-
            s.yerr.(i) +. (acb *. (bfloor +. (eps_c *. Float.abs row.(i))))
        done
      end
    done

  let reduced_cost s j =
    let rc = ref s.c.(j) and err = ref (eps_c *. Float.abs s.c.(j)) in
    List.iter
      (fun (i, k) ->
        rc := !rc -. (s.y.(i) *. k);
        err :=
          !err +. ((s.yerr.(i) +. (eps_c *. Float.abs s.y.(i))) *. Float.abs k))
      s.fcols.(j);
    s.rc.(j) <- !rc;
    s.rcerr.(j) <- !err;
    classify !rc !err

  (* d = Binv . A_j, with a forward error bound per entry: each inverse
     entry contributes its absolute drift floor plus a relative slack *)
  let column s j =
    let m = Array.length s.d in
    Array.fill s.d 0 m 0.0;
    Array.fill s.derr 0 m 0.0;
    let bfloor = drift_rel *. s.bscale in
    for i = 0 to m - 1 do
      let row = s.binv.(i) in
      List.iter
        (fun (r, k) ->
          s.d.(i) <- s.d.(i) +. (row.(r) *. k);
          s.derr.(i) <-
            s.derr.(i)
            +. ((bfloor +. (eps_c *. Float.abs row.(r))) *. Float.abs k))
        s.fcols.(j)
    done

  let column_sign s i = classify s.d.(i) s.derr.(i)

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

  (* alpha_rj = (Binv . A_j)_r, bounded like an entry of [column] *)
  let row_entry s r j =
    let row = s.binv.(r) and bfloor = drift_rel *. s.bscale in
    let a = ref 0.0 and err = ref 0.0 in
    List.iter
      (fun (i, k) ->
        a := !a +. (row.(i) *. k);
        err :=
          !err +. ((bfloor +. (eps_c *. Float.abs row.(i))) *. Float.abs k))
      s.fcols.(j);
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
    Array.iteri
      (fun i bi ->
        if bi >= art_first then begin
          art := !art +. s.xb.(i);
          arterr := !arterr +. xerr +. (eps_c *. Float.abs s.xb.(i))
        end)
      basis;
    classify !art !arterr

  let bump_refactor s =
    s.since_refactor <- s.since_refactor + 1;
    if s.since_refactor >= refactor_every then refactor s

  let update_binv s r =
    let m = Array.length s.d in
    let inv_dr = 1.0 /. s.d.(r) in
    let prow = s.binv.(r) in
    for kx = 0 to m - 1 do
      prow.(kx) <- prow.(kx) *. inv_dr;
      bump_bscale s prow.(kx)
    done;
    for i = 0 to m - 1 do
      let f = s.d.(i) in
      if i <> r && f <> 0.0 then begin
        let row = s.binv.(i) in
        for kx = 0 to m - 1 do
          row.(kx) <- row.(kx) -. (f *. prow.(kx));
          bump_bscale s row.(kx)
        done
      end
    done

  let pivot s r ~degenerate =
    (* the exact step is xb_r / d_r, zero exactly when xb_r is: pin the
       float step to 0 on degenerate pivots so xb mirrors the exact
       updates bit-for-bit in that case *)
    let step = if degenerate then 0.0 else s.xb.(r) /. s.d.(r) in
    for i = 0 to Array.length s.xb - 1 do
      if i <> r then s.xb.(i) <- s.xb.(i) -. (step *. s.d.(i))
    done;
    s.xb.(r) <- step;
    update_binv s r;
    refresh_xscale s;
    bump_refactor s

  let count = function
    | Pivot.Pivot -> Obs.incr m_float_pivots 1
    | Pivot.Degenerate | Pivot.Bland_fallback -> ()
end

module Engine = Pivot.Make (Float_arith)

let run ?(warm = false) ~budget t basis ~objective iter_count =
  let s = Float_arith.create t basis in
  match if warm then Float_arith.refactor s with
  | exception Pivot.Undecided -> Pivot.Aborted
  | () -> Engine.run ~repair:warm ~budget t s basis ~objective iter_count
