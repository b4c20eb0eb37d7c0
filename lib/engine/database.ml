(* A database instance binds each relation name to a tuple source: either a
   stored table or a virtual, generated-on-demand source (the paper's
   `datagen` scan property, Sec. 6 — when set, the executor never touches
   stored rows for that relation). *)

open Hydra_rel

type source =
  | Stored of Table.t
  | Generated of generated

and generated = {
  gen_rows : int;
  gen_col : string -> int -> int;  (* column name -> row index -> value *)
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
  | Generated g -> g.gen_rows

(* column accessor closure: row index -> value *)
let reader t rname cname =
  match source t rname with
  | Stored tbl ->
      let pos = Table.col_pos tbl cname in
      fun r -> Table.get_pos tbl ~row:r ~pos
  | Generated g -> g.gen_col cname

(* one column's values at the given row ids, through one fresh reader *)
let gather t rname cname rows = Array.map (reader t rname cname) rows

let relation_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.sources [] |> List.sort compare
