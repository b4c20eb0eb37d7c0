(* The factorization behind factor.mli, which states its contract.

   B is kept as elementary operations ("etas"), each a pivot index p, a
   sparse index vector and its values, the divisor first:

   - L: one column eta per elimination step with a nonempty multiplier
     column (divisor one). FTRAN applies them in step order.
   - U: one per step, the pivot column's entries in the rows pivoted
     before it (divisor: the pivot). FTRAN applies them in reverse
     step order, which is back substitution.
   - updates: one per simplex pivot, the entering column's FTRAN d at
     the leaving position r (divisor d_r), applied after L and U.

   L and U work in constraint-row order, the updates in basis-position
   order; the pivot sequence maps one to the other. BTRAN runs the same
   etas as row operations in the opposite order. *)

module Obs = Hydra_obs.Obs

module type NUM = sig
  type t

  val zero : t
  val one : t
  val is_zero : t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val magnitude : t -> float
  val col_op : t array -> int -> int array -> t array -> unit
  val row_op : t array -> int -> int array -> t array -> unit
  val permute : t array -> int array -> t array -> unit
  val eta_of : t array -> int -> int array * t array
end

let refactor_every = 64

(* a pivot chosen for sparsity must hold at least this fraction of the
   largest magnitude in its active column *)
let threshold = 0.01

(* the Markowitz search looks at most at this many of the sparsest
   active columns *)
let search_columns = 4

module Make (N : NUM) = struct
  type eta = { p : int; idx : int array; vals : N.t array }

  type t = {
    l : eta array;
    u : eta array;
    row_of : int array;  (* basis position -> its pivot row *)
    pos_of : int array;  (* pivot row -> basis position *)
    scratch : N.t array;
    mutable upd : eta array;  (* the first [n_upd] are live, oldest first *)
    mutable n_upd : int;
  }

  exception Singular

  let no_eta = { p = 0; idx = [||]; vals = [||] }

  let eta p entries pivot =
    {
      p;
      idx = Array.of_list (List.map fst entries);
      vals = Array.of_list (pivot :: List.map snd entries);
    }

  let factorize ~m cols basis =
    Obs.with_span "lp.factor" @@ fun () ->
    (* the active submatrix, by column (row -> value) and by row (the
       set of columns) *)
    let colv = Array.init m (fun _ -> Hashtbl.create 4) in
    let rowc = Array.init m (fun _ -> Hashtbl.create 4) in
    let set k i v =
      if N.is_zero v then begin
        Hashtbl.remove colv.(k) i;
        Hashtbl.remove rowc.(i) k
      end
      else begin
        Hashtbl.replace colv.(k) i v;
        Hashtbl.replace rowc.(i) k ()
      end
    in
    let get k i = Option.value ~default:N.zero (Hashtbl.find_opt colv.(k) i) in
    Array.iteri
      (fun k bk -> List.iter (fun (i, v) -> set k i (N.add (get k i) v)) cols.(bk))
      basis;
    let col_done = Array.make m false and row_done = Array.make m false in
    (* per column: its U entries, in rows pivoted before it *)
    let ucol = Array.make m [] in
    let ls = ref [] and us = ref [] in
    let row_of = Array.make m 0 and pos_of = Array.make m 0 in
    let count k = Hashtbl.length colv.(k) in
    let admissible i k =
      let a = N.magnitude (get k i) in
      Hashtbl.fold (fun _ v ok -> ok && a >= threshold *. N.magnitude v) colv.(k) true
    in
    (* singleton candidates, checked again when popped: a count change
       pushes a column or row whose count became 1 *)
    let cstack = ref [] and rstack = ref [] in
    let col_changed k =
      match count k with
      | 0 -> raise Singular
      | 1 -> cstack := k :: !cstack
      | _ -> ()
    in
    let row_changed i = if Hashtbl.length rowc.(i) = 1 then rstack := i :: !rstack in
    for k = m - 1 downto 0 do
      col_changed k;
      row_changed k
    done;
    let rec pop stack valid =
      match !stack with
      | [] -> None
      | x :: rest ->
          stack := rest;
          if valid x then Some x else pop stack valid
    in
    let sole tbl = Hashtbl.fold (fun x _ _ -> x) tbl (-1) in
    let choose () =
      match pop cstack (fun k -> (not col_done.(k)) && count k = 1) with
      | Some q -> (sole colv.(q), q)
      | None -> (
          (* a row singleton costs no fill either *)
          let single i =
            (not row_done.(i))
            && Hashtbl.length rowc.(i) = 1
            && admissible i (sole rowc.(i))
          in
          match pop rstack single with
          | Some i -> (i, sole rowc.(i))
          | None ->
              (* Markowitz: the admissible entry of least
                 (row count - 1) * (column count - 1) among the
                 sparsest columns, ties to the lower row *)
              let q = ref (-1) in
              for k = 0 to m - 1 do
                if (not col_done.(k)) && (!q < 0 || count k < count !q) then q := k
              done;
              let cq = count !q in
              let best = ref (-1, -1) and cost = ref max_int and seen = ref 0 in
              for k = !q to m - 1 do
                if !seen < search_columns && (not col_done.(k)) && count k = cq
                then begin
                  incr seen;
                  Hashtbl.iter
                    (fun i _ ->
                      let c = (Hashtbl.length rowc.(i) - 1) * (cq - 1) in
                      if
                        (c < !cost || (c = !cost && i < fst !best))
                        && admissible i k
                      then begin
                        cost := c;
                        best := (i, k)
                      end)
                    colv.(k)
                end
              done;
              !best)
    in
    for _ = 1 to m do
      let p, q = choose () in
      let v = get q p in
      let lcol =
        Hashtbl.fold
          (fun i a acc -> if i = p then acc else (i, N.div a v) :: acc)
          colv.(q) []
      in
      col_done.(q) <- true;
      Hashtbl.iter
        (fun i _ ->
          Hashtbl.remove rowc.(i) q;
          row_changed i)
        colv.(q);
      Hashtbl.reset colv.(q);
      (* row p leaves the active matrix: its entries join U *)
      let urow = Hashtbl.fold (fun k () acc -> (k, get k p) :: acc) rowc.(p) [] in
      List.iter
        (fun (k, a) ->
          Hashtbl.remove colv.(k) p;
          ucol.(k) <- (p, a) :: ucol.(k))
        urow;
      Hashtbl.reset rowc.(p);
      row_done.(p) <- true;
      (* the Schur complement *)
      List.iter
        (fun (k, a) ->
          List.iter
            (fun (i, l) ->
              set k i (N.sub (get k i) (N.mul l a));
              row_changed i)
            lcol;
          col_changed k)
        urow;
      if lcol <> [] then ls := eta p lcol N.one :: !ls;
      us := eta p ucol.(q) v :: !us;
      row_of.(q) <- p;
      pos_of.(p) <- q
    done;
    {
      l = Array.of_list (List.rev !ls);
      u = Array.of_list (List.rev !us);
      row_of;
      pos_of;
      scratch = Array.make m N.zero;
      upd = Array.make refactor_every no_eta;
      n_upd = 0;
    }

  let col_op w e = N.col_op w e.p e.idx e.vals
  let row_op w e = N.row_op w e.p e.idx e.vals

  let ftran f w =
    Array.iter (col_op w) f.l;
    for k = Array.length f.u - 1 downto 0 do
      col_op w f.u.(k)
    done;
    N.permute w f.row_of f.scratch;
    for k = 0 to f.n_upd - 1 do
      col_op w f.upd.(k)
    done

  let btran f w =
    for k = f.n_upd - 1 downto 0 do
      row_op w f.upd.(k)
    done;
    N.permute w f.pos_of f.scratch;
    Array.iter (row_op w) f.u;
    for k = Array.length f.l - 1 downto 0 do
      row_op w f.l.(k)
    done

  let update f r d =
    let idx, vals = N.eta_of d r in
    if f.n_upd = Array.length f.upd then
      f.upd <- Array.append f.upd (Array.make (Array.length f.upd) no_eta);
    f.upd.(f.n_upd) <- { p = r; idx; vals };
    f.n_upd <- f.n_upd + 1

  let etas f = f.n_upd
end
