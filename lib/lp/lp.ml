open Hydra_arith

type relation = Eq | Le | Ge

type constr = {
  terms : (int * Rat.t) list;
  rel : relation;
  rhs : Rat.t;
}

type t = {
  mutable nvars : int;
  mutable constrs : constr list;  (* reversed *)
  mutable nconstrs : int;
}

let create () = { nvars = 0; constrs = []; nconstrs = 0 }

let add_var lp () =
  let i = lp.nvars in
  lp.nvars <- i + 1;
  i

let add_vars lp n =
  let first = lp.nvars in
  lp.nvars <- first + max 0 n;
  first

let num_vars lp = lp.nvars
let num_constraints lp = lp.nconstrs

let add_constraint lp terms rel rhs =
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= lp.nvars then
        invalid_arg
          (Printf.sprintf "Lp.add_constraint: unknown variable %d" v))
    terms;
  lp.constrs <- { terms; rel; rhs } :: lp.constrs;
  lp.nconstrs <- lp.nconstrs + 1

let add_eq lp terms rhs = add_constraint lp terms Eq rhs

let add_eq_count lp vars k =
  add_eq lp (List.map (fun v -> (v, Rat.one)) vars) (Rat.of_int k)

let constraints lp = List.rev lp.constrs

let eval_terms terms x =
  List.fold_left
    (fun acc (v, c) -> Rat.add acc (Rat.mul c x.(v)))
    Rat.zero terms

let residual c x =
  let lhs = eval_terms c.terms x in
  match c.rel with
  | Eq -> Rat.sub lhs c.rhs
  | Le -> Rat.max Rat.zero (Rat.sub lhs c.rhs)
  | Ge -> Rat.max Rat.zero (Rat.sub c.rhs lhs)

let check lp x =
  Array.length x = lp.nvars
  && Array.for_all (fun v -> Rat.sign v >= 0) x
  && List.for_all (fun c -> Rat.is_zero (residual c x)) (constraints lp)

let residuals lp x = List.map (fun c -> residual c x) (constraints lp)

(* solution-vector codec: "<n> v0 v1 ... v(n-1)". The length prefix lets
   the reader reject truncated payloads without guessing. *)
let vector_to_string (x : Bigint.t array) =
  let buf = Buffer.create (16 * (Array.length x + 1)) in
  Buffer.add_string buf (string_of_int (Array.length x));
  Array.iter
    (fun v ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Bigint.to_string v))
    x;
  Buffer.contents buf

let vector_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [] -> None
  | n :: rest -> (
      match int_of_string_opt n with
      | None -> None
      | Some n ->
          if n < 0 || List.length rest <> n then None
          else (
            try Some (Array.of_list (List.map Bigint.of_string rest))
            with Invalid_argument _ | Failure _ -> None))

(* Each row's left-hand side is rendered once, into [row], and copied
   to both outputs; only the right-hand side differs between them. *)
let render lp ~full ~structure =
  let header =
    Printf.sprintf "LP with %d vars, %d constraints\n" lp.nvars lp.nconstrs
  in
  Buffer.add_string full header;
  Buffer.add_string structure header;
  let row = Buffer.create 256 in
  List.iter
    (fun c ->
      Buffer.clear row;
      List.iteri
        (fun i (v, coef) ->
          if i > 0 then Buffer.add_string row " + ";
          if not (Rat.equal coef Rat.one) then begin
            Buffer.add_string row (Rat.to_string coef);
            Buffer.add_char row '*'
          end;
          Buffer.add_char row 'x';
          Buffer.add_string row (string_of_int v))
        c.terms;
      Buffer.add_string row
        (match c.rel with Eq -> " = " | Le -> " <= " | Ge -> " >= ");
      Buffer.add_buffer full row;
      Buffer.add_string full (Rat.to_string c.rhs);
      Buffer.add_char full '\n';
      Buffer.add_buffer structure row;
      Buffer.add_string structure "_\n")
    (constraints lp)
