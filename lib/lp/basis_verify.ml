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
    rc : Rat.t array;  (* per column: the last reduced cost computed *)
    alpha : Rat.t array;  (* per column: the last dual-phase row entry *)
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
    let rc =
      List.fold_left
        (fun acc (i, k) -> Rat.sub acc (Rat.mul s.y.(i) k))
        s.c.(j) s.cols.(j)
    in
    s.rc.(j) <- rc;
    sign rc

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

  let compare_basic s i l = of_int (Rat.compare s.xb.(i) s.xb.(l))

  let row_entry s r j =
    let row = s.binv.(r) in
    let a =
      List.fold_left
        (fun acc (i, k) -> Rat.add acc (Rat.mul row.(i) k))
        Rat.zero s.cols.(j)
    in
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
   basis state [(binv, basis, xb)], which it mutates; it must be primal
   feasible unless [repair] runs the dual phase first *)
let run_phases ?pivots ?repair ~budget (t : Pivot.tableau) binv basis xb
    ~objective iter_count =
  let m = t.Pivot.m and n = t.Pivot.n in
  let s =
    {
      Exact_arith.cols = t.Pivot.cols;
      binv;
      xb;
      y = Array.make m Rat.zero;
      d = Array.make m Rat.zero;
      c = [||];
      rc = Array.make n Rat.zero;
      alpha = Array.make n Rat.zero;
    }
  in
  let outcome =
    Engine.run ?pivots ?repair ~budget t s basis ~objective iter_count
  in
  { outcome; basis; xb }

let identity m = Pivot.identity m ~zero:Rat.zero ~one:Rat.one

let cold ~budget (t : Pivot.tableau) basis ~objective iter_count =
  (* identity basis inverse; xb = b *)
  run_phases ~budget t (identity t.Pivot.m) basis (Array.copy t.Pivot.b)
    ~objective iter_count

(* Gauss-Jordan inversion of the m x m matrix whose columns are
   [t.cols.(basis.(j))]; None when the candidate is singular. The
   inverse is the same whatever the pivot order, but every entry an
   elimination fills in is an allocated Rat, so the order keeps these
   sparse 0/1 bases sparse: the sparsest columns go first, and each
   pivots on the row with the fewest nonzeros (bmat and binv together,
   ties to the lowest row) among those not yet pivoted. Column j's
   pivot row is moved to row j, so binv ends as B^-1 in row order. *)
let factorize t basis =
  let m = t.Pivot.m in
  let bmat = Array.make_matrix m m Rat.zero in
  Array.iteri
    (fun j bj ->
      List.iter
        (fun (i, k) -> bmat.(i).(j) <- Rat.add bmat.(i).(j) k)
        t.Pivot.cols.(bj))
    basis;
  let binv = identity m in
  let nonzeros row =
    Array.fold_left (fun n q -> if Rat.is_zero q then n else n + 1) 0 row
  in
  let nnz = Array.map (fun row -> 1 + nonzeros row) bmat in
  let pivoted = Array.make m false in
  let width = Array.map (fun bj -> List.length t.Pivot.cols.(bj)) basis in
  let order = Array.init m Fun.id in
  Array.stable_sort (fun a b -> compare width.(a) width.(b)) order;
  try
    Array.iter
      (fun col ->
        let p = ref (-1) in
        for i = 0 to m - 1 do
          if
            (not pivoted.(i))
            && (not (Rat.is_zero bmat.(i).(col)))
            && (!p < 0 || nnz.(i) < nnz.(!p))
          then p := i
        done;
        if !p < 0 then raise Exit;
        if !p <> col then begin
          (* row [col] is not pivoted yet: only rows of earlier columns are *)
          let sw a =
            let tmp = a.(col) in
            a.(col) <- a.(!p);
            a.(!p) <- tmp
          in
          sw bmat;
          sw binv;
          sw nnz
        end;
        pivoted.(col) <- true;
        let inv_p = Rat.inv bmat.(col).(col) in
        let scale row =
          for k = 0 to m - 1 do
            if not (Rat.is_zero row.(k)) then row.(k) <- Rat.mul row.(k) inv_p
          done
        in
        scale bmat.(col);
        scale binv.(col);
        for i = 0 to m - 1 do
          if i <> col && not (Rat.is_zero bmat.(i).(col)) then begin
            let f = bmat.(i).(col) in
            let elim dst src =
              for k = 0 to m - 1 do
                if not (Rat.is_zero src.(k)) then begin
                  let was_zero = Rat.is_zero dst.(k) in
                  dst.(k) <- Rat.sub dst.(k) (Rat.mul f src.(k));
                  if was_zero <> Rat.is_zero dst.(k) then
                    nnz.(i) <- (if was_zero then nnz.(i) + 1 else nnz.(i) - 1)
                end
              done
            in
            elim bmat.(i) bmat.(col);
            elim binv.(i) binv.(col)
          end
        done)
      order;
    Some binv
  with Exit -> None

let verify ?(hint = false) ~budget t ~objective iter_count cand =
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
      if (not hint) && Array.exists (fun v -> Rat.sign v < 0) xb then None
      else begin
        let pivots = ref 0 in
        match
          run_phases ~pivots ~repair:hint ~budget t binv (Array.copy cand) xb
            ~objective iter_count
        with
        | { outcome = Pivot.Aborted; _ } ->
            (* an exact run only aborts when the dual repair gave up *)
            None
        | r ->
            if !pivots > 0 then Obs.incr m_verify_repairs 1;
            Some r
      end
