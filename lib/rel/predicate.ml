(* Selection predicates in disjunctive normal form (Sec. 4.1): a predicate
   is a disjunction of "sub-constraints", each sub-constraint a conjunction
   of per-attribute range restrictions. Attributes are qualified names
   ("relation.attr" or view attribute names). *)

type conjunct = (string * Interval.t) list
(* Normalized: attributes sorted and unique; missing attribute = no
   restriction ("true" along that dimension, Def. 4.5). *)

type t = conjunct list
(* Normalized: no conjunct with an empty interval. [ [] ] (one empty
   conjunct) is TRUE; [] (no disjunct) is FALSE. *)

let true_ : t = [ [] ]
let false_ : t = []

let normalize_conjunct atoms =
  (* intersect repeated attributes, sort by name; None if contradictory *)
  let tbl = Hashtbl.create 8 in
  let contradictory = ref false in
  List.iter
    (fun (a, iv) ->
      let cur = try Hashtbl.find tbl a with Not_found -> Interval.full in
      let iv' = Interval.inter cur iv in
      if Interval.is_empty iv' then contradictory := true;
      Hashtbl.replace tbl a iv')
    atoms;
  if !contradictory then None
  else
    Some
      (Hashtbl.fold (fun a iv acc -> (a, iv) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

let of_conjuncts cs = List.filter_map normalize_conjunct cs

(* a single range atom as a predicate *)
let atom attr iv = of_conjuncts [ [ (attr, iv) ] ]

let disj (a : t) (b : t) : t = a @ b

let conj (a : t) (b : t) : t =
  List.concat_map (fun ca -> List.filter_map (fun cb -> normalize_conjunct (ca @ cb)) b) a

let restriction conjunct attr =
  match List.assoc_opt attr conjunct with
  | Some iv -> iv
  | None -> Interval.full

let eval_conjunct lookup (c : conjunct) =
  List.for_all (fun (a, iv) -> Interval.contains iv (lookup a)) c

let eval lookup (p : t) = List.exists (eval_conjunct lookup) p

let attrs (p : t) =
  List.concat_map (fun c -> List.map fst c) p
  |> List.sort_uniq compare

(* substitute attribute names, e.g. when lifting relation predicates into
   view space or anonymizing *)
let rename f (p : t) : t =
  List.map (fun c -> List.map (fun (a, iv) -> (f a, iv)) c) p
  |> of_conjuncts

(* clamp every atom to the attribute's domain (needed before partitioning
   so that region boxes have finite corners to instantiate at) *)
let clamp domain_of (p : t) : t =
  List.filter_map
    (fun c ->
      normalize_conjunct
        (List.map
           (fun (a, iv) ->
             let lo, hi = domain_of a in
             (a, Interval.inter iv (Interval.make lo hi)))
           c))
    p

let compare_t (a : t) (b : t) = compare a b
let equal (a : t) (b : t) = compare a b = 0

let to_string (p : t) =
  match p with
  | [] -> "FALSE"
  | [ [] ] -> "TRUE"
  | _ ->
      let buf = Buffer.create 64 in
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string buf " OR ";
          Buffer.add_char buf '(';
          if c = [] then Buffer.add_string buf "TRUE"
          else
            List.iteri
              (fun j (a, iv) ->
                if j > 0 then Buffer.add_string buf " AND ";
                Buffer.add_string buf a;
                Buffer.add_string buf " IN ";
                Buffer.add_string buf (Interval.to_string iv))
              c;
          Buffer.add_char buf ')')
        p;
      Buffer.contents buf

let pp fmt p = Format.pp_print_string fmt (to_string p)
