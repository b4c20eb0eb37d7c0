(* Half-open integer intervals [lo, hi). The empty interval is canonically
   [0, 0). These are the building blocks of predicates, regions and grid
   cells throughout the partitioning algorithms. *)

type t = { lo : int; hi : int }

let empty = { lo = 0; hi = 0 }
let make lo hi = if lo >= hi then empty else { lo; hi }
let full = make min_int max_int
let point v = make v (v + 1)
let is_empty iv = iv.lo >= iv.hi
let contains iv v = iv.lo <= v && v < iv.hi
let equal a b = (is_empty a && is_empty b) || (a.lo = b.lo && a.hi = b.hi)

let inter a b =
  let lo = if a.lo > b.lo then a.lo else b.lo in
  let hi = if a.hi < b.hi then a.hi else b.hi in
  make lo hi

let overlaps a b = not (is_empty (inter a b))

(* set containment: a subset of b *)
let subset a b = is_empty a || (b.lo <= a.lo && a.hi <= b.hi)

(* width as an int; [full] would overflow, callers clamp domains first *)
let width iv = if is_empty iv then 0 else iv.hi - iv.lo

(* split [iv] at point [p]: parts strictly below and at-or-above [p] *)
let split_at iv p = (inter iv (make min_int p), inter iv (make p max_int))

let compare a b =
  match compare a.lo b.lo with 0 -> compare a.hi b.hi | c -> c

let to_string iv =
  if is_empty iv then "[)" else Printf.sprintf "[%d,%d)" iv.lo iv.hi

let pp fmt iv = Format.pp_print_string fmt (to_string iv)
