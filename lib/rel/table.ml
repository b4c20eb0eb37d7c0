(* Column-major in-memory storage for one relation. Every column holds
   native ints (the anonymized universe is numeric). Primary keys are
   stored like any other column; generators conventionally use row number
   + 1, matching the tuple generator's pk-as-row-number scheme (Sec. 6). *)

type t = {
  name : string;
  col_names : string array;
  col_index : (string, int) Hashtbl.t;
  mutable nrows : int;
  mutable cols : int array array;  (* cols.(c).(r) *)
  mutable capacity : int;
}

let create name col_names =
  let col_names = Array.of_list col_names in
  let col_index = Hashtbl.create (Array.length col_names) in
  Array.iteri (fun i c -> Hashtbl.replace col_index c i) col_names;
  {
    name;
    col_names;
    col_index;
    nrows = 0;
    cols = Array.map (fun _ -> [||]) col_names;
    capacity = 0;
  }

let name t = t.name
let length t = t.nrows
let ncols t = Array.length t.col_names
let col_names t = Array.to_list t.col_names

let col_pos t cname =
  match Hashtbl.find_opt t.col_index cname with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Table %s: no column %S" t.name cname)

let reserve t n =
  if n > t.capacity then begin
    let cap = max n (max 16 (t.capacity * 2)) in
    t.cols <-
      Array.map
        (fun old ->
          let fresh = Array.make cap 0 in
          Array.blit old 0 fresh 0 t.nrows;
          fresh)
        t.cols;
    t.capacity <- cap
  end

let add_row t row =
  if Array.length row <> Array.length t.col_names then
    invalid_arg (Printf.sprintf "Table %s: row arity mismatch" t.name);
  reserve t (t.nrows + 1);
  Array.iteri (fun c v -> t.cols.(c).(t.nrows) <- v) row;
  t.nrows <- t.nrows + 1

(* append [count] copies of [row]; bulk path for summary materialization *)
let add_rows t row count =
  if count > 0 then begin
    reserve t (t.nrows + count);
    Array.iteri
      (fun c v -> Array.fill t.cols.(c) t.nrows count v)
      row;
    t.nrows <- t.nrows + count
  end

let get t ~row ~col = t.cols.(col_pos t col).(row)
let get_pos t ~row ~pos = t.cols.(pos).(row)

let row t r = Array.map (fun col -> col.(r)) t.cols

let column t cname =
  let pos = col_pos t cname in
  Array.sub t.cols.(pos) 0 t.nrows

let column_view t cname = t.cols.(col_pos t cname)

let iter_rows t f =
  for r = 0 to t.nrows - 1 do
    f r
  done

let of_rows name col_names rows =
  let t = create name col_names in
  List.iter (add_row t) rows;
  t

(* adopt pre-built column arrays without copying; all must share a length *)
let of_columns name col_names cols =
  let t = create name col_names in
  let n = match cols with [] -> 0 | c :: _ -> Array.length c in
  List.iter
    (fun c ->
      if Array.length c <> n then
        invalid_arg (Printf.sprintf "Table %s: ragged columns" name))
    cols;
  t.cols <- Array.of_list cols;
  t.nrows <- n;
  t.capacity <- n;
  t

let pp fmt t =
  Format.fprintf fmt "%s (%d rows): %s@." t.name t.nrows
    (String.concat ", " (Array.to_list t.col_names))
