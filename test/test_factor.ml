(* White-box tests of the sparse LU basis factorization (Factor) and of
   the float simplex instance's error bounds. The library keeps these
   modules private, so this test compiles their sources itself (see the
   copy_files stanza in test/dune).

   Bases are random, sparse and nonsingular, in the shapes Formulate
   emits: unit slack/artificial columns and count rows with 0/+-1
   entries, plus small integers so that inverses hold fractions. Every
   float result is compared, entry by entry, against exact rational
   arithmetic. The corner families below drive the factorization's
   bookkeeping: duplicate and zero entries, a dense row, exact
   cancellation, fill-in, row-singleton chains, singular bases and tiny
   pivots. *)

module Rat = Hydra_arith.Rat
module Exact = Factor.Make (Basis_verify.Rat_num)
module Approx = Factor.Make (Simplex_f.Float_num)
module F = Simplex_f.Float_arith

(* ---- an independent reference: dense Gaussian elimination ---- *)

(* the m x m matrix whose column k is [cols.(k)] *)
let dense m cols =
  let a = Array.make_matrix m m Rat.zero in
  Array.iteri
    (fun k col -> List.iter (fun (i, v) -> a.(i).(k) <- Rat.add a.(i).(k) v) col)
    cols;
  a

(* x with a x = rhs, or None when a is singular *)
let ref_solve a rhs =
  let m = Array.length rhs in
  let a = Array.map Array.copy a and x = Array.copy rhs in
  try
    for c = 0 to m - 1 do
      let p = ref c in
      while !p < m && Rat.is_zero a.(!p).(c) do
        incr p
      done;
      if !p = m then raise Exit;
      let swap v = let t = v.(c) in v.(c) <- v.(!p); v.(!p) <- t in
      swap a;
      swap x;
      for i = 0 to m - 1 do
        if i <> c && not (Rat.is_zero a.(i).(c)) then begin
          let f = Rat.div a.(i).(c) a.(c).(c) in
          for j = c to m - 1 do
            a.(i).(j) <- Rat.sub a.(i).(j) (Rat.mul f a.(c).(j))
          done;
          x.(i) <- Rat.sub x.(i) (Rat.mul f x.(c))
        end
      done
    done;
    Some (Array.init m (fun i -> Rat.div x.(i) a.(i).(i)))
  with Exit -> None

(* columns as (row, value) lists, in the index and value arrays the
   factorization and the tableau take *)
let split cols =
  ( Array.map (fun c -> Array.of_list (List.map fst c)) cols,
    Array.map (fun c -> Array.of_list (List.map snd c)) cols )

let factorize m cols basis =
  let idx, vals = split cols in
  Exact.factorize ~m idx vals basis

let tableau m cols b =
  let cidx, cval = split cols in
  let n = Array.length cols in
  { Pivot.m; n; cidx; cval; b; art_first = n }

let transpose a =
  Array.init (Array.length a) (fun i -> Array.map (fun row -> row.(i)) a)

(* ---- generators ---- *)

let coef_gen =
  QCheck.Gen.(
    frequency
      [ (6, oneofl [ 1; -1 ]); (2, oneofl [ 2; -2; 3; -3 ]); (1, return 4) ])

(* a sparse column: a unit slack, or a count row's 1..4 entries *)
let column_gen m =
  let open QCheck.Gen in
  frequency
    [
      (1, map (fun i -> [ (i, Rat.one) ]) (int_range 0 (m - 1)));
      ( 3,
        let* rows = list_size (int_range 1 (min m 4)) (int_range 0 (m - 1)) in
        let rows = List.sort_uniq compare rows in
        let+ cs = list_size (return (List.length rows)) coef_gen in
        List.map2 (fun i c -> (i, Rat.of_int c)) rows cs );
    ]

let vector_gen m = QCheck.Gen.(array_size (return m) (map Rat.of_int (int_range (-5) 5)))

(* a sparse triangular chain: column k holds [diag] on the diagonal and
   -+4 in the two rows above. With 3 on the diagonal the inverse's
   entries grow about twofold per row, in thirds; float rounding error
   then outgrows an absolute floor that ignores how large the inverse
   is. With 1 they grow about sixfold. *)
let chain_gen ~diag m =
  let open QCheck.Gen in
  let+ signs = array_size (return (2 * m)) bool in
  Array.init m (fun k ->
      let off d = if k >= d then [ (k - d, Rat.of_int (if signs.((2 * k) + d - 1) then 4 else -4)) ] else [] in
      ((k, Rat.of_int diag) :: off 1) @ off 2)

(* a nonsingular basis: random columns, retried until nonsingular, with
   the identity as the last resort *)
let basis_gen m =
  let open QCheck.Gen in
  let rec attempt k =
    if k = 0 then return (Array.init m (fun i -> [ (i, Rat.one) ]))
    else
      let* cols = array_size (return m) (column_gen m) in
      match ref_solve (dense m cols) (Array.make m Rat.zero) with
      | Some _ -> return cols
      | None -> attempt (k - 1)
  in
  attempt 50

type case = {
  m : int;
  cols : (int * Rat.t) list array;  (* the basis columns, then the pool *)
  a : Rat.t array;
  c : Rat.t array;
  moves : (int * int) list;  (* (nonbasic column, leaving-row seed) *)
}

let case_gen ~max_moves =
  let open QCheck.Gen in
  let* chain = bool in
  let* m = if chain then int_range 10 20 else int_range 1 12 in
  let* basis = if chain then chain_gen ~diag:3 m else basis_gen m in
  let* pool = array_size (int_range 1 8) (column_gen m) in
  let* a = vector_gen m and* c = vector_gen m in
  let* moves =
    list_size (int_range 0 max_moves)
      (pair (int_range 0 (Array.length pool - 1)) (int_range 0 (m - 1)))
  in
  return { m; cols = Array.append basis pool; a; c; moves }

let print_case c =
  let col l =
    String.concat " "
      (List.map (fun (i, v) -> Printf.sprintf "%d:%s" i (Rat.to_string v)) l)
  in
  Printf.sprintf "m=%d cols=[%s] a=[%s] c=[%s] moves=[%s]" c.m
    (String.concat "; " (Array.to_list (Array.map col c.cols)))
    (String.concat " " (Array.to_list (Array.map Rat.to_string c.a)))
    (String.concat " " (Array.to_list (Array.map Rat.to_string c.c)))
    (String.concat " "
       (List.map (fun (j, r) -> Printf.sprintf "%d@%d" j r) c.moves))

let arb ~max_moves = QCheck.make ~print:print_case (case_gen ~max_moves)

let solve_ref cs basis rhs =
  ref_solve (dense (Array.length basis) (Array.map (fun b -> cs.(b)) basis)) rhs

let solve_ref_t cs basis rhs =
  ref_solve
    (transpose (dense (Array.length basis) (Array.map (fun b -> cs.(b)) basis)))
    rhs

let ftran f v = let w = Array.copy v in Exact.ftran f w; w
let btran f v = let w = Array.copy v in Exact.btran f w; w
let equal x y = Array.for_all2 Rat.equal x y

let column c q =
  let a = Array.make c.m Rat.zero in
  List.iter (fun (i, v) -> a.(i) <- Rat.add a.(i) v) c.cols.(q);
  a

(* Walk the moves over [basis], the first m columns to begin with: each
   brings the j-th column q that is not basic (there are as many as pool
   columns) in at the first row, from the seed on, where [d q] (its
   FTRAN) is nonzero, as a simplex pivot does, and [pivot r q] then
   updates the basis. Every move pivots: a nonzero column has a nonzero
   FTRAN. [check] runs before every move and at the end. *)
let walk c basis ~d ~check ~pivot =
  List.iter
    (fun (j, seed) ->
      check ();
      let nonbasic =
        List.filter
          (fun q -> not (Array.mem q basis))
          (List.init (Array.length c.cols) Fun.id)
      in
      let q = List.nth nonbasic (j mod List.length nonbasic) in
      let dq = d q in
      let r =
        List.find
          (fun r -> not (Rat.is_zero dq.(r)))
          (List.init c.m (fun k -> (seed + k) mod c.m))
      in
      pivot r q dq)
    c.moves;
  check ()

(* ---- exact factors ---- *)

let exact_solves name arb =
  QCheck.Test.make ~name ~count:300 arb (fun c ->
      let basis = Array.init c.m Fun.id in
      let f = factorize c.m c.cols basis in
      equal (ftran f c.a) (Option.get (solve_ref c.cols basis c.a))
      && equal (btran f c.c) (Option.get (solve_ref_t c.cols basis c.c)))

let exact_updates name arb =
  QCheck.Test.make ~name ~count:300 arb (fun c ->
      let basis = Array.init c.m Fun.id in
      let f = factorize c.m c.cols basis in
      walk c basis
        ~d:(fun q -> ftran f (column c q))
        ~check:ignore
        ~pivot:(fun r q d ->
          Exact.update f r d;
          basis.(r) <- q);
      let fresh = factorize c.m c.cols basis in
      equal (ftran f c.a) (ftran fresh c.a)
      && equal (btran f c.c) (btran fresh c.c)
      && equal (ftran f c.a) (Option.get (solve_ref c.cols basis c.a)))

let prop_exact_solves =
  exact_solves "Rat FTRAN/BTRAN equal a reference solve" (arb ~max_moves:0)

let prop_exact_updates =
  exact_updates "eta updates equal a fresh factorization" (arb ~max_moves:80)

(* singular variants of a nonsingular basis: a column repeated, a zero
   column, a column that is the sum of two others *)
let prop_singular =
  QCheck.Test.make ~name:"singular bases are reported as singular" ~count:300
    QCheck.(pair (arb ~max_moves:0) (int_bound 2))
    (fun (c, kind) ->
      QCheck.assume (match kind with 0 -> c.m >= 2 | 1 -> true | _ -> c.m >= 3);
      let m = c.m in
      let cols = Array.sub c.cols 0 m in
      (match kind with
      | 0 -> cols.(m - 1) <- cols.(0)
      | 1 -> cols.(m - 1) <- []
      | _ ->
          let a = dense m [| cols.(0) |] and b = dense m [| cols.(1) |] in
          cols.(m - 1) <-
            List.filter_map
              (fun i ->
                let v = Rat.add a.(i).(0) b.(i).(0) in
                if Rat.is_zero v then None else Some (i, v))
              (List.init m Fun.id));
      let basis = Array.init m Fun.id in
      let exact_singular =
        match factorize m cols basis with
        | exception Exact.Singular -> true
        | _ -> false
      in
      let idx, vals = split cols in
      (* floats see an empty column exactly *)
      let float_singular =
        kind <> 1
        ||
        match Approx.factorize ~m idx (Array.map (Array.map Rat.to_float) vals) basis with
        | exception Approx.Singular -> true
        | _ -> false
      in
      exact_singular && float_singular)

(* ---- the float instance's bounds ---- *)

(* |x - exact| <= err, decided in floats when a margin for their own
   rounding leaves no doubt, else exactly *)
let within (x, err) exact =
  let e = Rat.to_float exact in
  Float.abs (x -. e) +. (epsilon_float *. (Float.abs x +. Float.abs e)) <= err
  || Rat.compare (Rat.abs (Rat.sub (Rat.of_float x) exact)) (Rat.of_float err) <= 0

(* After warm-starting the float instance on the basis, and after every
   pivot of the walk, FTRAN of every pool column and the duals c_B B^-1
   stay within the instance's error bounds on every entry. The costs are
   set once, so the duals are carried through the pivots, and repriced
   only after a refactorization: walks reach twice
   [Factor.refactor_every] pivots, covering both bounds. The exact
   results come from Rat factors walked alongside (checked against the
   reference above). FTRAN of each basis column must give its unit
   vector: a small result out of large intermediate terms, whose
   rounding error only the bounds' scaling by the inverse's size
   covers.

   A twin instance, walked alongside with its costs reset before every
   check, prices afresh from the same factors: no reduced cost may be
   [Unsure] from the carried duals where the fresh ones decide it. *)
let prop_float_bounds =
  QCheck.Test.make ~name:"float error bounds cover the exact results"
    ~count:400 (arb ~max_moves:(2 * Factor.refactor_every)) (fun c ->
      let m = c.m and n = Array.length c.cols in
      let t = tableau m c.cols (Array.map Rat.abs c.a) in
      (* each instance reads this array as the engine's basis *)
      let basis = Array.init m Fun.id in
      let s = F.create t basis and twin = F.create t basis in
      F.warm s;
      F.warm twin;
      let ex = factorize m c.cols basis in
      let costs = Array.init n (fun j -> c.c.(j mod m)) in
      F.set_costs s costs;
      let ok = ref true in
      let cover entry exact =
        Array.iteri (fun i v -> if not (within (entry s i) v) then ok := false) exact
      in
      walk c basis
        ~d:(fun q -> ftran ex (column c q))
        ~check:(fun () ->
          Array.iteri
            (fun k bk ->
              F.column s bk;
              cover F.column_entry
                (Array.init m (fun i -> if i = k then Rat.one else Rat.zero)))
            basis;
          for q = m to n - 1 do
            F.column s q;
            cover F.column_entry (ftran ex (column c q))
          done;
          F.price s basis;
          cover F.price_entry (btran ex (Array.map (fun b -> costs.(b)) basis));
          F.set_costs twin costs;
          F.price twin basis;
          for j = 0 to n - 1 do
            if F.reduced_cost s j = Pivot.Unsure && F.reduced_cost twin j <> Pivot.Unsure
            then ok := false
          done)
        ~pivot:(fun r q d ->
          Exact.update ex r d;
          F.column s q;
          F.column twin q;
          basis.(r) <- q;
          F.pivot s r q ~degenerate:true;
          F.pivot twin r q ~degenerate:true);
      !ok)

(* The duals carried through pivots that grow the basis inverse fast:
   from B = I, the columns of a chain with 1 on the diagonal enter one
   by one, in order or in reverse, until the basis is the chain. The
   costs are
   c_j = y*.A_j for a y* in thirds, so every reduced cost is exactly 0,
   the exact duals stay y* throughout, and each pivot's theta is float
   noise. What keeps the carried bound ahead of the noise, which the
   growing inverse amplifies, is theta's own error term. *)
let prop_carried_duals =
  QCheck.Test.make ~name:"carried duals stay within their bounds" ~count:100
    QCheck.(
      make
        Gen.(
          let* m = int_range 8 20 in
          triple bool (chain_gen ~diag:1 m)
            (array_size (return m) (int_range (-5) 5))))
    (fun (reverse, chain, ys) ->
      let m = Array.length chain in
      let cols = Array.append (Array.init m (fun i -> [ (i, Rat.one) ])) chain in
      let t = tableau m cols (Array.make m Rat.one) in
      let basis = Array.init m Fun.id in
      let s = F.create t basis in
      let ystar = Array.map (fun v -> Rat.div (Rat.of_int v) (Rat.of_int 3)) ys in
      F.set_costs s
        (Array.map
           (List.fold_left (fun acc (i, v) -> Rat.add acc (Rat.mul v ystar.(i))) Rat.zero)
           cols);
      F.price s basis;
      let order = List.init m Fun.id in
      List.for_all
        (fun k ->
          F.column s (m + k);
          basis.(k) <- m + k;
          F.pivot s k (m + k) ~degenerate:true;
          F.price s basis;
          List.for_all (fun i -> within (F.price_entry s i) ystar.(i)) order)
        (if reverse then List.rev order else order))

(* ---- the factorization's corners ---- *)

let nonsingular m cols = ref_solve (dense m cols) (Array.make m Rat.zero) <> None

(* [gen m] retried until nonsingular, with the identity as the last
   resort *)
let retry gen m =
  let open QCheck.Gen in
  let rec attempt k =
    if k = 0 then return (Array.init m (fun i -> [ (i, Rat.one) ]))
    else
      let* cols = gen m in
      if nonsingular m cols then return cols else attempt (k - 1)
  in
  attempt 50

(* the same basis with rows relabelled and columns reordered *)
let shuffled cols =
  let open QCheck.Gen in
  let m = Array.length cols in
  let perm = map Array.of_list (shuffle_l (List.init m Fun.id)) in
  let* rows = perm and* order = perm in
  return (Array.map (fun k -> List.map (fun (i, v) -> (rows.(i), v)) cols.(k)) order)

let pm k = QCheck.Gen.(map (fun neg -> Rat.of_int (if neg then -k else k)) bool)

(* Duplicate entries in one column and explicit zeros: some entries of
   a nonsingular basis are split in two, the parts summing to the
   entry, and zeros are added at random rows; the matrix is the same. *)
let messy_gen m =
  let open QCheck.Gen in
  let* cols = basis_gen m in
  let entry (i, v) =
    frequency
      [
        (2, return [ (i, v) ]);
        (1, map (fun k -> [ (i, Rat.sub v (Rat.of_int k)); (i, Rat.of_int k) ]) (int_range (-2) 2));
        (1, map (fun j -> [ (i, v); (j, Rat.zero) ]) (int_range 0 (m - 1)));
      ]
  in
  let column l = map List.concat (flatten_l (List.map entry l)) >>= shuffle_l in
  flatten_a (Array.map column cols)

(* one dense row, shared by every column, as the relation-total row of
   a HYDRA LP *)
let dense_row_gen m =
  let open QCheck.Gen in
  let* d = int_range 0 (m - 1) in
  let column =
    let* col = column_gen m and* v = pm 1 in
    return (if List.mem_assoc d col then col else (d, v) :: col)
  in
  array_size (return m) column

(* Exact cancellation in the Schur update: every column is one of a few
   +-1 templates plus a +-1 entry of its own, so eliminating on one
   template entry cancels its rows in the columns sharing it. *)
let cancel_gen m =
  let open QCheck.Gen in
  let template =
    let* rows = list_size (int_range 2 (min m 3)) (int_range 0 (m - 1)) in
    flatten_l (List.map (fun i -> map (fun v -> (i, v)) (pm 1)) (List.sort_uniq compare rows))
  in
  let* templates = array_size (int_range 1 3) template in
  let column =
    let* t = oneofa templates and* i = int_range 0 (m - 1) and* v = pm 1 in
    return ((i, v) :: t)
  in
  array_size (return m) column

(* fill-in: every column holds 2 to 4 entries, so no column is a
   singleton *)
let fill_gen m =
  let open QCheck.Gen in
  let column =
    let* rows = list_size (int_range 2 (min m 4)) (int_range 0 (m - 1)) in
    flatten_l
      (List.map (fun i -> map (fun v -> (i, Rat.of_int v)) coef_gen) (List.sort_uniq compare rows))
  in
  array_size (return m) column

(* A row-singleton chain: lower triangular, every column but the last
   with an entry below the diagonal, and the last column with one above
   it, so no column is a singleton until the end and each pivot leaves
   the next row a singleton. *)
let row_chain_gen m =
  let open QCheck.Gen in
  let column j =
    let* d = oneofl [ 1; -1; 2; -2 ] and* below = list_size (int_range 1 3) (int_range (j + 1) (m - 1)) in
    let* vs = list_size (return (List.length below)) (oneofl [ 1; -1; 2; -3 ]) in
    let below = List.sort_uniq (fun (a, _) (b, _) -> compare a b) (List.combine below vs) in
    return ((j, Rat.of_int d) :: List.map (fun (i, v) -> (i, Rat.of_int v)) below)
  in
  let* cols = flatten_a (Array.init (m - 1) column) and* d = pm 1 and* x = pm 2 in
  return (Array.append cols [| [ (m - 1, d); (m - 2, x) ] |])

(* A tiny pivot with the best sparsity: 2 x 2 blocks [e 1; 1 1], e
   about 1e-20, which pivoting on e would wreck in floats. *)
let tiny_gen m =
  let open QCheck.Gen in
  let m = 2 * (m / 2) in
  let block k =
    let* e = int_range 1 3 and* s = pm 1 in
    let e = Rat.mul s (Rat.of_float (float_of_int e *. 1e-20)) in
    return [| [ (2 * k, e); ((2 * k) + 1, Rat.one) ]; [ (2 * k, Rat.one); ((2 * k) + 1, s) ] |]
  in
  map Array.concat (flatten_l (List.init (m / 2) block))

let corners =
  [ ("messy", messy_gen); ("dense row", dense_row_gen); ("cancel", cancel_gen); ("fill", fill_gen);
    ("row chain", row_chain_gen) ]

(* a case over a corner family's basis *)
let corner_case ?(families = corners) ~max_moves () =
  let open QCheck.Gen in
  let* _, family = oneofl families and* m = int_range 2 12 in
  let* basis = retry family m >>= shuffled in
  let m = Array.length basis in
  let* pool = array_size (int_range 1 8) (column_gen m) in
  let* a = vector_gen m and* c = vector_gen m in
  let* moves =
    list_size (int_range 0 max_moves)
      (pair (int_range 0 (Array.length pool - 1)) (int_range 0 (m - 1)))
  in
  return { m; cols = Array.append basis pool; a; c; moves }

let corner_arb ?families ~max_moves () =
  QCheck.make ~print:print_case (corner_case ?families ~max_moves ())

let prop_corner_solves =
  exact_solves "corners: Rat FTRAN/BTRAN equal a reference solve" (corner_arb ~max_moves:0 ())

let prop_corner_updates =
  exact_updates "corners: eta updates equal a fresh factorization" (corner_arb ~max_moves:80 ())

(* Singular corners. Structural: an empty row, or three columns within
   two rows. Numerical: one row the sum of two others, which
   elimination cancels; or a row singleton's row plus another row, so
   that one cancellation and the row singleton's pivot empty the third
   row while no column is a singleton. Floats must see the structural
   ones too. *)
let prop_corner_singular =
  QCheck.Test.make ~name:"corners: singular bases are reported as singular" ~count:300
    QCheck.(pair (corner_arb ~max_moves:0 ()) (int_bound 3))
    (fun (c, kind) ->
      QCheck.assume (c.m >= 3);
      let m = c.m in
      let cols = Array.sub c.cols 0 m in
      let a = dense m cols in
      let column k = List.filter_map (fun i -> if Rat.is_zero a.(i).(k) then None else Some (i, a.(i).(k))) (List.init m Fun.id) in
      let cols =
        match kind with
        | 0 -> Array.map (List.filter (fun (i, _) -> i <> m - 1)) cols
        | 1 ->
            Array.mapi
              (fun k col -> if k < 3 then List.filter (fun (i, _) -> i < 2) col @ [ (k mod 2, Rat.one) ] else col)
              cols
        | 2 ->
            for k = 0 to m - 1 do
              a.(m - 1).(k) <- Rat.add a.(0).(k) a.(1).(k)
            done;
            Array.init m column
        | _ ->
            (* rows 0 (a), 1 (p) and 2 (r = a + p) over columns X = 0,
               Z = 1, Y = 2, and the rest dense in rows 3.. *)
            Array.init m (fun k ->
                match k with
                | 0 -> [ (0, Rat.one); (2, Rat.one) ]
                | 1 -> [ (1, Rat.one); (2, Rat.one) ]
                | 2 -> (0, Rat.one) :: (2, Rat.one) :: List.init (m - 3) (fun i -> (i + 3, Rat.one))
                | _ -> List.init (m - 3) (fun i -> (i + 3, Rat.of_int (1 + (i * k mod 5)))))
      in
      let basis = Array.init m Fun.id in
      let exact_singular =
        match factorize m cols basis with exception Exact.Singular -> true | _ -> false
      in
      let idx, vals = split cols in
      let float_singular =
        kind >= 2
        ||
        match Approx.factorize ~m idx (Array.map (Array.map Rat.to_float) vals) basis with
        | exception Approx.Singular -> true
        | _ -> false
      in
      exact_singular && float_singular)

(* Threshold pivoting: float FTRAN and BTRAN stay within 1e-9 of the
   exact solve, relative to its largest entry, on bases whose sparsest
   pivots are tiny. *)
let prop_tiny_pivots =
  QCheck.Test.make ~name:"corners: float solves stay accurate past tiny pivots" ~count:200
    (corner_arb ~families:[ ("tiny", tiny_gen) ] ~max_moves:0 ())
    (fun c ->
      let m = c.m and basis = Array.init c.m Fun.id in
      let idx, vals = split (Array.sub c.cols 0 m) in
      let f = Approx.factorize ~m idx (Array.map (Array.map Rat.to_float) vals) basis in
      let close solve exact rhs =
        let w = Array.map Rat.to_float rhs in
        solve f w;
        let exact = Array.map Rat.to_float (Option.get exact) in
        let scale = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 1.0 exact in
        Array.for_all2 (fun x e -> Float.abs (x -. e) <= 1e-9 *. scale) w exact
      in
      close Approx.ftran (solve_ref c.cols basis c.a) c.a
      && close Approx.btran (solve_ref_t c.cols basis c.c) c.c)

let suite =
  [
    ( "factor",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_exact_solves; prop_exact_updates; prop_singular; prop_float_bounds;
          prop_carried_duals; prop_corner_solves; prop_corner_updates; prop_corner_singular;
          prop_tiny_pivots;
        ] );
  ]

let () = Alcotest.run "factor" suite
