(* Database summary generator (Sec. 5): instantiate view solutions into
   view summaries, repair referential integrity across views, and extract
   per-relation summaries. The summary is the paper's headline artifact:
   its size depends only on the workload, never on the data scale. *)

open Hydra_rel

type view_summary = {
  vs_rel : string;
  vs_attrs : string array;  (* qualified attribute names *)
  mutable vs_rows : (int array * int) list;  (* instantiated values, count *)
}

type relation_summary = {
  rs_rel : string;
  rs_cols : string array;  (* fk columns then own non-key attributes *)
  rs_rows : (int array * int) array;  (* column values, NumTuples *)
  rs_total : int;
}

type t = {
  schema : Schema.t;
  views : view_summary list;
  relations : relation_summary list;
  extra_tuples : (string * int) list;  (* RI-repair additions per relation *)
}

exception Summary_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Summary_error s)) fmt

module Chaos = Hydra_chaos.Chaos
module Durable_io = Hydra_durable.Durable_io

type corruption = { sum_path : string; sum_line : int; sum_reason : string }

exception Corrupt of corruption

let () =
  Printexc.register_printer (function
    | Corrupt c ->
        Some
          (Printf.sprintf "Summary.Corrupt(%s:%d: %s)" c.sum_path c.sum_line
             c.sum_reason)
    | _ -> None)

(* ---- instantiation (Sec. 5.2): assign every region's cardinality to one
   deterministic point of its representative box ----

   The paper picks the low corner and argues this minimizes the chance of
   a foreign-key combination missing from the referenced view. [`Midpoint]
   exists for the ablation benchmark that quantifies exactly that effect:
   midpoints of different views' boxes coincide far less often, so
   integrity repair has to add more tuples. *)

type instantiation = [ `Low_corner | `Midpoint ]

let instantiate_point policy (box : Box.t) =
  match policy with
  | `Low_corner -> Box.low_corner box
  | `Midpoint ->
      Array.map
        (fun (ivl : Interval.t) ->
          ivl.Interval.lo + ((ivl.Interval.hi - 1 - ivl.Interval.lo) / 2))
        box

let instantiate_view ?(policy = `Low_corner) vrel (sol : Solution.t) =
  (* merge duplicate corners: distinct regions may share a low corner *)
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (r : Solution.row) ->
      let values = instantiate_point policy r.Solution.box in
      let key = Array.to_list values in
      match Hashtbl.find_opt tbl key with
      | Some (v, c) -> Hashtbl.replace tbl key (v, c + r.Solution.count)
      | None ->
          Hashtbl.add tbl key (values, r.Solution.count);
          order := key :: !order)
    sol.Solution.rows;
  {
    vs_rel = vrel;
    vs_attrs = sol.Solution.attrs;
    vs_rows = List.rev_map (fun k -> Hashtbl.find tbl k) !order;
  }


(* projection of a row of [src] onto the attributes of [dst] *)
let projector (src : view_summary) (dst_attrs : string array) =
  let idx =
    Array.map
      (fun a ->
        let rec go i =
          if i >= Array.length src.vs_attrs then
            err "view %s lacks attribute %s needed for projection" src.vs_rel a
          else if src.vs_attrs.(i) = a then i
          else go (i + 1)
        in
        go 0)
      dst_attrs
  in
  fun (values : int array) -> Array.map (fun i -> values.(i)) idx

(* ---- referential-integrity repair (Sec. 5.3) ----

   Views are solved independently, so a dependent view may instantiate
   value combinations absent from the view it borrows from. Walking
   relations in reverse topological order (dependents first), every
   missing combination is appended to the target view with NumTuples = 1.
   The number of added rows is bounded by the number of summary rows —
   workload-determined, independent of data scale. *)

let repair_integrity schema (views : (string * view_summary) list) =
  let find_view rname =
    match List.assoc_opt rname views with
    | Some v -> v
    | None -> err "no view summary for relation %s" rname
  in
  let extra = Hashtbl.create 8 in
  let order = List.rev (Schema.topo_order schema) in
  List.iter
    (fun rname ->
      let vi = find_view rname in
      let r = Schema.find schema rname in
      List.iter
        (fun (_, target) ->
          let vj = find_view target in
          let project = projector vi vj.vs_attrs in
          let present = Hashtbl.create (List.length vj.vs_rows) in
          List.iter
            (fun (v, _) -> Hashtbl.replace present (Array.to_list v) ())
            vj.vs_rows;
          let added = ref [] in
          List.iter
            (fun (v, _) ->
              let combo = project v in
              let key = Array.to_list combo in
              if not (Hashtbl.mem present key) then begin
                Hashtbl.replace present key ();
                added := (combo, 1) :: !added
              end)
            vi.vs_rows;
          if !added <> [] then begin
            vj.vs_rows <- vj.vs_rows @ List.rev !added;
            let n = List.length !added in
            Hashtbl.replace extra target
              (n + try Hashtbl.find extra target with Not_found -> 0)
          end)
        r.Schema.fks)
    order;
  List.map
    (fun rname ->
      (rname, try Hashtbl.find extra rname with Not_found -> 0))
    (Schema.topo_order schema)

(* ---- relation summary extraction (Sec. 5.4) ----

   The fk value for a row is the pk of the first tuple of the matching
   row-group in the target view: 1 + the cumulative NumTuples before it. *)

let cumulative_index vs =
  let tbl = Hashtbl.create (List.length vs.vs_rows) in
  let acc = ref 0 in
  List.iter
    (fun (v, c) ->
      let key = Array.to_list v in
      if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key (!acc + 1);
      acc := !acc + c)
    vs.vs_rows;
  tbl

let extract_relation schema (views : (string * view_summary) list) rname =
  let vi = List.assoc rname views in
  let r = Schema.find schema rname in
  let fk_targets = List.map snd r.Schema.fks in
  let indexes =
    List.map
      (fun tgt ->
        let vj = List.assoc tgt views in
        (projector vi vj.vs_attrs, cumulative_index vj))
      fk_targets
  in
  let own_attr_idx =
    List.map
      (fun a ->
        let q = Schema.qualify rname a.Schema.aname in
        let rec go i =
          if vi.vs_attrs.(i) = q then i else go (i + 1)
        in
        go 0)
      r.Schema.attrs
  in
  let cols =
    Array.of_list
      (List.map fst r.Schema.fks @ List.map (fun a -> a.Schema.aname) r.Schema.attrs)
  in
  let rows =
    List.map
      (fun (v, c) ->
        let fk_vals =
          List.map
            (fun (project, index) ->
              let combo = Array.to_list (project v) in
              match Hashtbl.find_opt index combo with
              | Some start -> start
              | None -> err "integrity repair missed a combination in %s" rname)
            indexes
        in
        let attr_vals = List.map (fun i -> v.(i)) own_attr_idx in
        (Array.of_list (fk_vals @ attr_vals), c))
      vi.vs_rows
    |> Array.of_list
  in
  {
    rs_rel = rname;
    rs_cols = cols;
    rs_rows = rows;
    rs_total = Array.fold_left (fun acc (_, c) -> acc + c) 0 rows;
  }

(* ---- top-level assembly ---- *)

let of_view_solutions ?(policy = `Low_corner) schema
    (sols : (string * Solution.t) list) =
  let views = List.map (fun (r, s) -> (r, instantiate_view ~policy r s)) sols in
  let extra_tuples = repair_integrity schema views in
  let relations =
    List.map (fun (rname, _) -> extract_relation schema views rname) views
  in
  { schema; views = List.map snd views; relations; extra_tuples }

let relation t rname =
  match List.find_opt (fun r -> r.rs_rel = rname) t.relations with
  | Some r -> r
  | None -> err "summary has no relation %s" rname

let total_rows t =
  List.fold_left (fun acc r -> acc + r.rs_total) 0 t.relations

let summary_rows t =
  List.fold_left (fun acc r -> acc + Array.length r.rs_rows) 0 t.relations

(* ---- text serialization (the artifact the vendor ships around) ----

   Three block kinds, relations first (tools that only want the shipped
   tables read a prefix), then the view summaries they were extracted
   from, then the per-relation RI-repair tallies:

     relation R (col,...)      view R (qualified.attr,...)
     v,... : count             v,... : count
     end                       end
                               extra R : n

   [load] is the exact inverse of [save]; files written before views and
   extras were persisted simply have no such blocks and load with both
   fields empty. *)

let write_rows buf rows =
  List.iter
    (fun (v, c) ->
      Buffer.add_string buf
        (Printf.sprintf "%s : %d\n"
           (String.concat "," (Array.to_list (Array.map string_of_int v)))
           c))
    rows

let save path t =
  (* the tap precedes any filesystem effect, and write_atomic publishes
     by rename — so a crash while saving always leaves the previous
     summary (or its absence) fully intact *)
  Chaos.tap "summary.save";
  Durable_io.write_atomic ~digest:true path (fun buf ->
      List.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "relation %s (%s)\n" r.rs_rel
               (String.concat "," (Array.to_list r.rs_cols)));
          write_rows buf (Array.to_list r.rs_rows);
          Buffer.add_string buf "end\n")
        t.relations;
      List.iter
        (fun vs ->
          Buffer.add_string buf
            (Printf.sprintf "view %s (%s)\n" vs.vs_rel
               (String.concat "," (Array.to_list vs.vs_attrs)));
          write_rows buf vs.vs_rows;
          Buffer.add_string buf "end\n")
        t.views;
      List.iter
        (fun (rname, n) ->
          Buffer.add_string buf (Printf.sprintf "extra %s : %d\n" rname n))
        t.extra_tuples)

let load path schema =
  let corrupt line fmt =
    Printf.ksprintf
      (fun sum_reason ->
        raise (Corrupt { sum_path = path; sum_line = line; sum_reason }))
      fmt
  in
  let text =
    match Durable_io.read_verified path with
    | t -> t
    | exception Durable_io.Corrupt c -> corrupt 0 "%s" c.Durable_io.dur_reason
  in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let nlines = Array.length lines in
  let pos = ref 0 in
  let parse_int s ~line ~what =
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> corrupt line "malformed %s: %S" what (String.trim s)
  in
  let parse_header kind rest lineno =
    let n = String.length rest in
    match String.index_opt rest '(' with
    | Some i when n > 0 && rest.[n - 1] = ')' && i <= n - 2 ->
        let name = String.trim (String.sub rest 0 i) in
        let inner = String.sub rest (i + 1) (n - i - 2) in
        ( name,
          if inner = "" then [||]
          else Array.of_list (String.split_on_char ',' inner) )
    | _ -> corrupt lineno "malformed %s header" kind
  in
  let read_rows block =
    let rows = ref [] in
    let rec go () =
      if !pos >= nlines then
        corrupt nlines "unterminated %s block (missing 'end')" block;
      let lineno = !pos + 1 in
      let l = lines.(!pos) in
      incr pos;
      if l <> "end" then begin
        (match String.index_opt l ':' with
        | Some i ->
            let vals = String.trim (String.sub l 0 i) in
            let count =
              parse_int
                (String.sub l (i + 1) (String.length l - i - 1))
                ~line:lineno ~what:"row count"
            in
            let v =
              if vals = "" then [||]
              else
                Array.of_list
                  (List.map
                     (fun s -> parse_int s ~line:lineno ~what:"row value")
                     (String.split_on_char ',' vals))
            in
            rows := (v, count) :: !rows
        | None -> corrupt lineno "malformed summary row: %s" l);
        go ()
      end
    in
    go ();
    List.rev !rows
  in
  let strip prefix line =
    let n = String.length prefix in
    if String.length line > n && String.sub line 0 n = prefix then
      Some (String.sub line n (String.length line - n))
    else None
  in
  let relations = ref [] and views = ref [] and extras = ref [] in
  while !pos < nlines do
    let lineno = !pos + 1 in
    let line = lines.(!pos) in
    incr pos;
    match strip "relation " line with
    | Some rest ->
        let name, cols = parse_header "relation" rest lineno in
        let rs_rows = Array.of_list (read_rows "relation") in
        relations :=
          {
            rs_rel = name;
            rs_cols = cols;
            rs_rows;
            rs_total = Array.fold_left (fun acc (_, c) -> acc + c) 0 rs_rows;
          }
          :: !relations
    | None -> (
        match strip "view " line with
        | Some rest ->
            let name, attrs = parse_header "view" rest lineno in
            views :=
              { vs_rel = name; vs_attrs = attrs; vs_rows = read_rows "view" }
              :: !views
        | None -> (
            match strip "extra " line with
            | Some rest -> (
                match String.index_opt rest ':' with
                | Some i ->
                    let name = String.trim (String.sub rest 0 i) in
                    let n =
                      parse_int
                        (String.sub rest (i + 1)
                           (String.length rest - i - 1))
                        ~line:lineno ~what:"extra count"
                    in
                    extras := (name, n) :: !extras
                | None -> corrupt lineno "malformed summary extra line: %s" line)
            | None -> () (* unknown lines are reserved for future blocks *)))
  done;
  (* a file save wrote always has a trailer or a block (usually both);
     with neither it holds no summary at all, not an empty one *)
  if
    !relations = [] && !views = [] && !extras = []
    && Int64.of_int (String.length text)
       = In_channel.with_open_bin path In_channel.length
  then corrupt 0 "no summary block and no digest trailer";
  {
    schema;
    views = List.rev !views;
    relations = List.rev !relations;
    extra_tuples = List.rev !extras;
  }

let pp fmt t =
  List.iter
    (fun r ->
      Format.fprintf fmt "@[<v>%s (%s): %d summary rows, %d tuples@]@."
        r.rs_rel
        (String.concat "," (Array.to_list r.rs_cols))
        (Array.length r.rs_rows) r.rs_total)
    t.relations
