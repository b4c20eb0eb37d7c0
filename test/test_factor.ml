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

(* a sparse triangular chain: column k holds 3 on the diagonal and -+4
   in the two rows above, so the inverse's entries grow about twofold
   per row, in thirds; float rounding error then outgrows an absolute
   floor that ignores how large the inverse is *)
let chain_gen m =
  let open QCheck.Gen in
  let+ signs = array_size (return (2 * m)) bool in
  Array.init m (fun k ->
      let off d = if k >= d then [ (k - d, Rat.of_int (if signs.((2 * k) + d - 1) then 4 else -4)) ] else [] in
      ((k, Rat.of_int 3) :: off 1) @ off 2)

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
  moves : (int * int) list;  (* (pool column, leaving-row seed) *)
}

let case_gen ~max_moves =
  let open QCheck.Gen in
  let* chain = bool in
  let* m = if chain then int_range 10 20 else int_range 1 12 in
  let* basis = if chain then chain_gen m else basis_gen m in
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
   brings a pool column q in at the first row, from the seed on, where
   [d q] (its FTRAN) is nonzero, as a simplex pivot does, and [pivot r q]
   then updates the basis. [check] runs before every move and at the
   end. *)
let walk c basis ~d ~check ~pivot =
  List.iter
    (fun (j, seed) ->
      check ();
      let q = c.m + j in
      if not (Array.mem q basis) then begin
        let dq = d q in
        match
          List.find_opt
            (fun r -> not (Rat.is_zero dq.(r)))
            (List.init c.m (fun k -> (seed + k) mod c.m))
        with
        | None -> ()
        | Some r -> pivot r q dq
      end)
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
   pivot of the walk, FTRAN of every pool column and BTRAN of the costs
   stay within the instance's error bounds on every entry. The exact
   results come from Rat factors walked alongside (checked against the
   reference above). FTRAN of each basis column must give its unit
   vector: a small result out of large intermediate terms, whose
   rounding error only the bounds' scaling by the inverse's size
   covers. *)
let prop_float_bounds =
  QCheck.Test.make ~name:"float error bounds cover the exact results"
    ~count:400 (arb ~max_moves:80) (fun c ->
      let m = c.m and n = Array.length c.cols in
      let t =
        { Pivot.m; n; cols = c.cols; b = Array.map Rat.abs c.a; art_first = n }
      in
      (* the instance reads this array as the engine's basis *)
      let basis = Array.init m Fun.id in
      let s = F.create t basis in
      F.warm s;
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
          cover F.price_entry (btran ex (Array.map (fun b -> costs.(b)) basis)))
        ~pivot:(fun r q d ->
          Exact.update ex r d;
          F.column s q;
          basis.(r) <- q;
          F.pivot s r ~degenerate:true);
      !ok)

let suite =
  [
    ( "factor",
      List.map QCheck_alcotest.to_alcotest
        [ prop_exact_solves; prop_exact_updates; prop_singular; prop_float_bounds ] );
  ]

let () = Alcotest.run "factor" suite
