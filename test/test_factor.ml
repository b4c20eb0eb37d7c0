(* White-box tests of the sparse LU basis factorization (Factor) and of
   the float simplex instance's error bounds. The library keeps these
   modules private, so this test compiles their sources itself (see the
   copy_files stanza in test/dune).

   Bases are random, sparse and nonsingular, in the shapes Formulate
   emits: unit slack/artificial columns and count rows with 0/+-1
   entries, plus small integers so that inverses hold fractions. Every
   float result is compared, entry by entry, against exact rational
   arithmetic. *)

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
  List.iter (fun (i, v) -> a.(i) <- v) c.cols.(q);
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

let prop_exact_solves =
  QCheck.Test.make ~name:"Rat FTRAN/BTRAN equal a reference solve" ~count:300
    (arb ~max_moves:0) (fun c ->
      let basis = Array.init c.m Fun.id in
      let f = Exact.factorize ~m:c.m c.cols basis in
      equal (ftran f c.a) (Option.get (solve_ref c.cols basis c.a))
      && equal (btran f c.c) (Option.get (solve_ref_t c.cols basis c.c)))

let prop_exact_updates =
  QCheck.Test.make ~name:"eta updates equal a fresh factorization" ~count:300
    (arb ~max_moves:80) (fun c ->
      let basis = Array.init c.m Fun.id in
      let f = Exact.factorize ~m:c.m c.cols basis in
      walk c basis
        ~d:(fun q -> ftran f (column c q))
        ~check:ignore
        ~pivot:(fun r q d ->
          Exact.update f r d;
          basis.(r) <- q);
      let fresh = Exact.factorize ~m:c.m c.cols basis in
      equal (ftran f c.a) (ftran fresh c.a)
      && equal (btran f c.c) (btran fresh c.c)
      && equal (ftran f c.a) (Option.get (solve_ref c.cols basis c.a)))

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
        match Exact.factorize ~m cols basis with
        | exception Exact.Singular -> true
        | _ -> false
      in
      let float_cols = Array.map (List.map (fun (i, v) -> (i, Rat.to_float v))) cols in
      (* floats see an empty column exactly *)
      let float_singular =
        kind <> 1
        ||
        match Approx.factorize ~m float_cols basis with
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
      let t =
        { Pivot.m; n; cols = c.cols; b = Array.map Rat.abs c.a; art_first = n }
      in
      (* each instance reads this array as the engine's basis *)
      let basis = Array.init m Fun.id in
      let s = F.create t basis and twin = F.create t basis in
      F.warm s;
      F.warm twin;
      let ex = Exact.factorize ~m c.cols basis in
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
      let m = Array.length chain and n = 2 * Array.length chain in
      let cols = Array.append (Array.init m (fun i -> [ (i, Rat.one) ])) chain in
      let t = { Pivot.m; n; cols; b = Array.make m Rat.one; art_first = n } in
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

let suite =
  [
    ( "factor",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_exact_solves; prop_exact_updates; prop_singular; prop_float_bounds;
          prop_carried_duals;
        ] );
  ]

let () = Alcotest.run "factor" suite
