open Hydra_arith
module Obs = Hydra_obs.Obs

(* registry handles are created once at load time; every update is a
   single flag test when tracing is disabled *)
let m_pivots = Obs.counter "simplex.pivots"
let m_degenerate = Obs.counter "simplex.degenerate_pivots"
let m_bland = Obs.counter "simplex.bland_fallbacks"
let m_verify_repairs = Obs.counter "simplex.verify_repairs"

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

type run = { outcome : Pivot.outcome; basis : int array; xb : Rat.t array }

(* Both phases (and the artificial drive-out between them) from the
   primal-feasible basis state [(binv, basis, xb)], which it mutates *)
let run_phases ?pivots ~budget (t : Pivot.tableau) binv basis xb ~objective
    iter_count =
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
  let outcome =
    Engine.run ?pivots ~budget t s basis ~objective iter_count
  in
  { outcome; basis; xb }

let cold ~budget (t : Pivot.tableau) basis ~objective iter_count =
  (* identity basis inverse; xb = b *)
  let m = t.Pivot.m in
  let binv =
    Array.init m (fun i ->
        Array.init m (fun j -> if i = j then Rat.one else Rat.zero))
  in
  run_phases ~budget t binv basis (Array.copy t.Pivot.b) ~objective
    iter_count

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

let verify ~budget t ~objective iter_count cand =
  match factorize t cand with
  | None -> None
  | Some binv ->
      let m = t.Pivot.m in
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
        let r =
          run_phases ~pivots ~budget t binv (Array.copy cand) xb ~objective
            iter_count
        in
        if !pivots > 0 then Obs.incr m_verify_repairs 1;
        Some r
      end
