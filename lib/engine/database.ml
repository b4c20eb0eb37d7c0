(* A database instance binds each relation name to a tuple source: either a
   stored table or a virtual, generated-on-demand source (the paper's
   `datagen` scan property, Sec. 6 — when set, the executor never touches
   stored rows for that relation). *)

open Hydra_rel

type source =
  | Stored of Table.t
  | Generated of generated

(* run g covers rows [gen_starts.(g), gen_starts.(g + 1)) and holds one
   value per column; row r's pk is r + 1 *)
and generated = {
  gen_pk : string;
  gen_starts : int array;
  gen_cols : (string * int array) list;
}

type t = {
  schema : Schema.t;
  sources : (string, source) Hashtbl.t;
}

let create schema = { schema; sources = Hashtbl.create 16 }
let schema t = t.schema
let bind t rname source = Hashtbl.replace t.sources rname source
let bind_table t table = bind t (Table.name table) (Stored table)

let source t rname =
  match Hashtbl.find_opt t.sources rname with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Database: relation %S not bound" rname)

let nrows t rname =
  match source t rname with
  | Stored tbl -> Table.length tbl
  | Generated g -> g.gen_starts.(Array.length g.gen_starts - 1)

(* The run covering [row]: the greatest g with starts.(g) <= row.
   [cursor] keeps the last answer, so a sequential scan stays on its
   run or steps to the next; any other access binary-searches. *)
let locate (starts : int array) nruns cursor (row : int) =
  let g = !cursor in
  if g < nruns && starts.(g) <= row && row < starts.(g + 1) then g
  else if g + 1 < nruns && starts.(g + 1) <= row && row < starts.(g + 2)
  then begin
    cursor := g + 1;
    g + 1
  end
  else begin
    let lo = ref 0 and hi = ref (nruns - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if starts.(mid) <= row then lo := mid else hi := mid - 1
    done;
    cursor := !lo;
    !lo
  end

let run_values rname g cname =
  match List.assoc_opt cname g.gen_cols with
  | Some values -> values
  | None -> invalid_arg (Printf.sprintf "datagen %s: unknown column %S" rname cname)

(* column accessor closure: row index -> value *)
let reader t rname cname =
  match source t rname with
  | Stored tbl ->
      let pos = Table.col_pos tbl cname in
      fun r -> Table.get_pos tbl ~row:r ~pos
  | Generated g when cname = g.gen_pk -> fun row -> row + 1
  | Generated g ->
      let values = run_values rname g cname in
      let starts = g.gen_starts and cursor = ref 0 in
      let nruns = Array.length starts - 1 in
      fun row -> values.(locate starts nruns cursor row)

(* A generated column is filled run by run: [locate] finds the run of
   one row, and the rows after it that fall in the same run take its
   value without another call. *)
let gather t rname cname rows =
  let n = Array.length rows in
  let out = Array.make n 0 in
  (match source t rname with
  | Stored tbl ->
      let col = Table.column_view tbl cname in
      for i = 0 to n - 1 do
        Array.unsafe_set out i col.(Array.unsafe_get rows i)
      done
  | Generated g when cname = g.gen_pk ->
      for i = 0 to n - 1 do
        Array.unsafe_set out i (Array.unsafe_get rows i + 1)
      done
  | Generated g ->
      let values = run_values rname g cname in
      let starts = g.gen_starts and cursor = ref 0 and i = ref 0 in
      let nruns = Array.length starts - 1 in
      while !i < n do
        let run = locate starts nruns cursor (Array.unsafe_get rows !i) in
        let lo = starts.(run) and hi = starts.(run + 1) and v = values.(run) in
        Array.unsafe_set out !i v;
        incr i;
        while
          !i < n
          &&
          let r = Array.unsafe_get rows !i in
          lo <= r && r < hi
        do
          Array.unsafe_set out !i v;
          incr i
        done
      done);
  out

let relation_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.sources [] |> List.sort compare
