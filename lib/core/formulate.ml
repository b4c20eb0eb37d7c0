(* LP formulation for one view (Sec. 4): one variable per region of each
   sub-view's optimal partition, one equality per applicable CC, plus
   consistency constraints equating the marginal distributions of
   sub-views along shared attributes.

   Consistency is enforced along the clique-tree edges only: by the
   running intersection property, the merge procedure (Sec. 5.1) compares
   each sub-view with the already-merged solution exactly on its separator
   with its tree parent, so parent/child marginal equality on separators
   is sufficient — and refining partitions only along separator attributes
   avoids the combinatorial region blow-up that refining along every
   shared attribute would cause on wide fact views. *)

open Hydra_rel
open Hydra_lp
module Obs = Hydra_obs.Obs
module Cache = Hydra_cache.Cache
module Chaos = Hydra_chaos.Chaos

type subview_problem = {
  sp_node : Viewgraph.tree_node;
  sp_attrs : string array;
  sp_domains : Interval.t array;
  sp_ccs : (Predicate.t * int) list;  (* applicable CCs, total-size first *)
  sp_partition : Region.t;
  sp_var_base : int;
}

type view_result = {
  view : Preprocess.view;
  problems : subview_problem list;
  solutions : Solution.t list;  (* in merge (clique-tree DFS) order *)
  lp_vars : int;
  lp_constraints : int;
}

exception Formulation_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Formulation_error s)) fmt

let subview_domains (view : Preprocess.view) attrs =
  Array.map
    (fun a ->
      match List.assoc_opt a view.Preprocess.domains with
      | Some iv -> iv
      | None -> err "sub-view attribute %s has no domain" a)
    attrs

(* CCs whose predicate attributes all lie inside the sub-view's scope;
   the total-size CC (TRUE predicate) is in scope of every sub-view *)
let applicable_ccs (view : Preprocess.view) attrs =
  let scope = Array.to_list attrs in
  (Predicate.true_, view.Preprocess.total)
  :: List.filter_map
       (fun (vc : Preprocess.view_cc) ->
         if
           List.for_all
             (fun a -> List.mem a scope)
             (Predicate.attrs vc.Preprocess.pred)
         then Some (vc.Preprocess.pred, vc.Preprocess.card)
         else None)
       view.Preprocess.view_ccs

(* grouping-CC predicates in scope of the sub-view: they shape the region
   partition (so rows can be classified against them) but carry no LP
   count constraint — label positions beyond [sp_ccs] belong to them *)
let applicable_group_preds (view : Preprocess.view) attrs =
  let scope = Array.to_list attrs in
  List.filter_map
    (fun (gc : Preprocess.group_cc) ->
      if
        List.for_all (fun a -> List.mem a scope)
          (Predicate.attrs gc.Preprocess.g_pred)
        && List.for_all (fun a -> List.mem a scope) gc.Preprocess.g_attrs
        && not (Predicate.equal gc.Preprocess.g_pred Predicate.true_)
      then Some gc.Preprocess.g_pred
      else None)
    view.Preprocess.group_ccs

let build_problems (view : Preprocess.view) =
  List.map
    (fun (node : Viewgraph.tree_node) ->
      let sp_attrs = Array.of_list node.Viewgraph.clique in
      let sp_domains = subview_domains view sp_attrs in
      let sp_ccs = applicable_ccs view sp_attrs in
      let preds =
        Array.of_list
          (List.map fst sp_ccs @ applicable_group_preds view sp_attrs)
      in
      let sp_partition =
        Region.optimal_partition ~attrs:sp_attrs ~domains:sp_domains preds
      in
      { sp_node = node; sp_attrs; sp_domains; sp_ccs; sp_partition;
        sp_var_base = 0 })
    view.Preprocess.subviews

let dim_of p a =
  let rec go i =
    if i >= Array.length p.sp_attrs then
      err "sub-view lacks attribute %s" a
    else if p.sp_attrs.(i) = a then i
    else go (i + 1)
  in
  go 0

(* Consistency refinement: every partition is refined along the attributes
   of the tree-edge separators incident to it, at the union of all
   partitions' boundaries along that attribute (a global per-attribute cut
   set, so projection keys coincide across sub-views). *)
let refine_shared problems =
  let probs = Array.of_list problems in
  (* incident separator attributes per problem *)
  let incident = Array.map (fun _ -> []) probs in
  Array.iteri
    (fun i p ->
      match p.sp_node.Viewgraph.parent with
      | Some parent ->
          let sep = p.sp_node.Viewgraph.separator in
          incident.(i) <- sep @ incident.(i);
          incident.(parent) <- sep @ incident.(parent)
      | None -> ())
    probs;
  (* global cut set per attribute needing alignment *)
  let cut_attrs =
    Array.to_list incident |> List.concat |> List.sort_uniq compare
  in
  let cuts = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace cuts a []) cut_attrs;
  Array.iter
    (fun p ->
      Array.iteri
        (fun dim a ->
          if Hashtbl.mem cuts a then begin
            let pts = Hashtbl.find cuts a in
            let pts =
              Array.fold_left
                (fun acc (r : Region.region) ->
                  List.fold_left
                    (fun acc (b : Box.t) ->
                      b.(dim).Interval.lo :: b.(dim).Interval.hi :: acc)
                    acc r.Region.boxes)
                pts p.sp_partition.Region.regions
            in
            Hashtbl.replace cuts a pts
          end)
        p.sp_attrs)
    probs;
  Array.mapi
    (fun i p ->
      let attrs_to_refine = List.sort_uniq compare incident.(i) in
      let partition =
        List.fold_left
          (fun part a ->
            Region.refine_along part (dim_of p a)
              (List.sort_uniq compare (Hashtbl.find cuts a)))
          p.sp_partition attrs_to_refine
      in
      { p with sp_partition = partition })
    probs
  |> Array.to_list

(* projection key of a region along the given attrs: after refinement every
   box of the region occupies the same atomic interval along each separator
   attribute, so the first box is authoritative *)
let projection_key p (r : Region.region) shared_attrs =
  let box = List.hd r.Region.boxes in
  List.map
    (fun a ->
      let dim = dim_of p a in
      (box.(dim).Interval.lo, box.(dim).Interval.hi))
    shared_attrs

let add_cc_constraints lp p =
  List.iteri
    (fun j (_, card) ->
      let vars = ref [] in
      Array.iteri
        (fun i (r : Region.region) ->
          if r.Region.label.(j) then vars := (p.sp_var_base + i) :: !vars)
        p.sp_partition.Region.regions;
      Lp.add_eq_count lp !vars card)
    p.sp_ccs

(* disconnected clique-tree components are only tied through their
   duplicated total rows, which the relaxation may violate independently;
   an explicit total-equality row keeps their marginals mergeable even
   then (redundant — hence harmless — for the exact solve) *)
let add_total_glue lp a b =
  let all p =
    List.init
      (Region.num_regions p.sp_partition)
      (fun i -> (p.sp_var_base + i, Hydra_arith.Rat.one))
  in
  let negate = List.map (fun (v, c) -> (v, Hydra_arith.Rat.neg c)) in
  Lp.add_eq lp (all a @ negate (all b)) Hydra_arith.Rat.zero

let add_consistency_constraints lp child parent =
  let shared = child.sp_node.Viewgraph.separator in
  if shared <> [] then begin
    let collect p =
      let tbl = Hashtbl.create 32 in
      Array.iteri
        (fun i (r : Region.region) ->
          let key = projection_key p r shared in
          let cur = try Hashtbl.find tbl key with Not_found -> [] in
          Hashtbl.replace tbl key ((p.sp_var_base + i) :: cur))
        p.sp_partition.Region.regions;
      tbl
    in
    let t1 = collect child and t2 = collect parent in
    let keys = Hashtbl.create 32 in
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t1;
    Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) t2;
    Hashtbl.iter
      (fun key () ->
        let v1 = try Hashtbl.find t1 key with Not_found -> [] in
        let v2 = try Hashtbl.find t2 key with Not_found -> [] in
        let terms =
          List.map (fun v -> (v, Hydra_arith.Rat.one)) v1
          @ List.map (fun v -> (v, Hydra_arith.Rat.minus_one)) v2
        in
        if terms <> [] then Lp.add_eq lp terms Hydra_arith.Rat.zero)
      keys
  end

(* attribute-less view: the solution is a single empty row carrying the
   relation's total cardinality *)
let trivial_result (view : Preprocess.view) =
  {
    view;
    problems = [];
    solutions =
      [
        {
          Solution.attrs = [||];
          rows = [ { Solution.box = [||]; count = view.Preprocess.total } ];
        };
      ];
    lp_vars = 0;
    lp_constraints = 0;
  }

(* Build the complete LP of a view: per-sub-view CC equalities first, then
   cross-sub-view consistency equalities. Returns the number of CC
   constraints so callers can tell the two blocks apart (the relaxation
   path penalizes consistency violations much more heavily). *)
let formulate (view : Preprocess.view) =
  let problems = build_problems view |> refine_shared in
  let lp = Lp.create () in
  let problems =
    List.map
      (fun p ->
        let base = Lp.add_vars lp (Region.num_regions p.sp_partition) in
        { p with sp_var_base = base })
      problems
  in
  List.iter (add_cc_constraints lp) problems;
  let n_cc_constraints = Lp.num_constraints lp in
  let probs = Array.of_list problems in
  Array.iteri
    (fun i p ->
      match p.sp_node.Viewgraph.parent with
      | Some parent -> add_consistency_constraints lp p probs.(parent)
      | None -> if i > 0 then add_total_glue lp p probs.(0))
    probs;
  (problems, lp, n_cc_constraints)

let counts_of_bigint x =
  Array.map
    (fun v ->
      match Hydra_arith.Bigint.to_int v with
      | Some n -> n
      | None -> err "tuple count exceeds native int range")
    x

let result_of_counts (view : Preprocess.view) problems lp counts =
  let solutions =
    List.map
      (fun p ->
        let rows = ref [] in
        Array.iteri
          (fun i (r : Region.region) ->
            let c = counts.(p.sp_var_base + i) in
            if c > 0 then
              rows :=
                { Solution.box = List.hd r.Region.boxes; count = c } :: !rows)
          p.sp_partition.Region.regions;
        { Solution.attrs = p.sp_attrs; rows = List.rev !rows })
      problems
  in
  {
    view;
    problems;
    solutions;
    lp_vars = Lp.num_vars lp;
    lp_constraints = Lp.num_constraints lp;
  }

(* ---- fault-tolerant solve (never raises) ---- *)

type outcome =
  | Exact of view_result
  | Relaxed of view_result * Hydra_arith.Rat.t
  | Failed of string

type tier = Solve | State | Cache

type provenance = { tier : tier; fingerprint : string }

(* Violating a consistency constraint makes sub-view marginals disagree,
   which can defeat align-and-merge entirely; a violated CC merely skews
   one count. The relaxation therefore pays 1024x more for consistency
   slack, effectively restricting violations to the data constraints
   whenever the consistency subsystem alone is satisfiable. *)
let consistency_weight = Hydra_arith.Rat.of_int 1024

(* ---- content-addressed solve cache ----

   The key is a canonical rendering of everything the solve depends on:
   the view signature (relation, attributes, domains, CC rows with their
   RHS cardinalities, grouping CCs, clique-tree structure) plus the full
   formulated LP and the solver budgets. Preprocess emits CCs in
   canonical order, so textually-reordered but equivalent workloads hash
   identically; any CC/schema/budget change alters the rendering and
   therefore the key — invalidation by construction. The wall-clock
   [deadline] is deliberately excluded: it selects which rung a solve
   lands on, never what a given rung's solution is, and keying on real
   time would make warm runs miss spuriously. *)

let fingerprint_version = 1

(* The view signature, written to both keys' texts: relation,
   attributes, domains, CCs, grouping CCs and clique tree. Only the
   solve key's text gets the right-hand sides (the view total and every
   cardinality); the warm key elides them. *)
let render_signature (view : Preprocess.view) ~full ~structure =
  let both s =
    Buffer.add_string full s;
    Buffer.add_string structure s
  in
  let line s =
    both s;
    both "\n"
  in
  let card_line s n =
    both s;
    Printf.bprintf full " = %d" n;
    both "\n"
  in
  line ("view " ^ view.Preprocess.vrel);
  line ("attrs " ^ String.concat "," view.Preprocess.vattrs);
  List.iter
    (fun (a, (iv : Interval.t)) ->
      line
        (Printf.sprintf "domain %s [%d,%d)" a iv.Interval.lo iv.Interval.hi))
    view.Preprocess.domains;
  Printf.bprintf full "total %d\n" view.Preprocess.total;
  List.iter
    (fun (vc : Preprocess.view_cc) ->
      card_line
        ("cc " ^ Predicate.to_string vc.Preprocess.pred)
        vc.Preprocess.card)
    view.Preprocess.view_ccs;
  List.iter
    (fun (gc : Preprocess.group_cc) ->
      card_line
        (Printf.sprintf "group %s / %s"
           (String.concat "," gc.Preprocess.g_attrs)
           (Predicate.to_string gc.Preprocess.g_pred))
        gc.Preprocess.g_card)
    view.Preprocess.group_ccs;
  List.iter
    (fun (n : Viewgraph.tree_node) ->
      line
        (Printf.sprintf "clique %s sep %s parent %s"
           (String.concat "," n.Viewgraph.clique)
           (String.concat "," n.Viewgraph.separator)
           (match n.Viewgraph.parent with
           | Some p -> string_of_int p
           | None -> "-")))
    view.Preprocess.subviews

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- structural (warm-start) fingerprint ----

   The exact fingerprint keys replayable solutions, so it must cover
   every number in the problem. A warm-start basis only requires the
   tableau SHAPE to match: same view identity, same region/variable
   layout, same constraint rows and relations — with every right-hand
   side (the view total, CC cardinalities, LP rhs) elided. Two views
   that differ only in edited CC totals — the incremental-regeneration
   case — share this key, so the second solve verifies from the first
   one's terminal basis instead of pivoting from scratch. Budgets are
   excluded: they cannot change what a basis is. *)

let warm_fingerprint_version = 1

(* Both keys, (exact, structural), from one pass over the LP's rows
   (Lp.render). The texts are frozen: the keys are content addresses
   already on disk. *)
let keys ~max_nodes ~retries view lp n_cc_constraints =
  let full = Buffer.create 4096 and structure = Buffer.create 4096 in
  let vars = Lp.num_vars lp and rows = Lp.num_constraints lp in
  Printf.bprintf full "hydra-fingerprint %d\n" fingerprint_version;
  Printf.bprintf structure "hydra-warm-fingerprint %d\n"
    warm_fingerprint_version;
  render_signature view ~full ~structure;
  Printf.bprintf full "budget max_nodes=%d retries=%d\n" max_nodes retries;
  Printf.bprintf full "lp vars=%d constraints=%d cc_constraints=%d\n" vars
    rows n_cc_constraints;
  Printf.bprintf structure "lp vars=%d constraints=%d\n" vars rows;
  Lp.render lp ~full ~structure;
  (digest full, digest structure)

let fingerprint ?(max_nodes = 2000) ?(retries = 1) (view : Preprocess.view) =
  let lp, n_cc =
    if view.Preprocess.subviews = [] then (Lp.create (), 0)
    else
      let _, lp, n_cc = formulate view in
      (lp, n_cc)
  in
  fst (keys ~max_nodes ~retries view lp n_cc)

(* a terminal basis, one tableau column index per row *)
let basis_to_string b =
  String.concat " " ("basis" :: Array.to_list (Array.map string_of_int b))

let basis_of_string line =
  match String.split_on_char ' ' (String.trim line) with
  | "basis" :: rest -> (
      try Some (Array.of_list (List.map int_of_string rest))
      with Failure _ -> None)
  | _ -> None

(* warm entries live in the same store under the structural key; the
   payload is self-describing so a (digest-collision) mixup with a
   solve entry decodes as garbage, not as a wrong answer *)
let warm_entry_version = 1

let encode_warm basis =
  Printf.sprintf "hydra-warm %d\n%s\n" warm_entry_version
    (basis_to_string basis)

let decode_warm payload =
  match String.split_on_char '\n' payload with
  | header :: basis :: rest
    when header = Printf.sprintf "hydra-warm %d" warm_entry_version
         && List.for_all (fun l -> String.trim l = "") rest -> (
      match basis_of_string basis with
      | Some b when Array.length b > 0 -> Some b
      | _ -> None)
  | _ -> None

(* The raw solver verdict, before variable-indexed counts are expanded
   into per-region solutions — the unit the stores persist. *)
type raw_solve =
  | Raw_exact of Hydra_arith.Bigint.t array
  | Raw_relaxed of Hydra_arith.Bigint.t array * Hydra_arith.Rat.t
  | Raw_failed of string

(* 3: the payload is the rung and the vector; version 2's fourth line,
   a terminal basis no reader used, is gone (the warm hint lives under
   the structural key). The cache format_version was bumped in lockstep,
   so older entries never reach this codec. *)
let entry_version = 3

let failed_prefix = "rung failed "

let encode_entry raw =
  match raw with
  | Raw_exact x ->
      Printf.sprintf "hydra-solve %d\nrung exact\n%s\n" entry_version
        (Lp.vector_to_string x)
  | Raw_relaxed (x, violation) ->
      Printf.sprintf "hydra-solve %d\nrung relaxed %s\n%s\n" entry_version
        (Hydra_arith.Rat.to_string violation)
        (Lp.vector_to_string x)
  | Raw_failed m ->
      Printf.sprintf "hydra-solve %d\n%s%s\n\n" entry_version failed_prefix
        (String.map (function '\n' | '\r' -> ' ' | c -> c) m)

(* [None] on any malformation; length and (for exact entries)
   feasibility are re-checked against the freshly formulated LP, so even
   a key collision cannot replay a wrong solution as Exact. *)
let decode_entry lp payload =
  let blank l = String.trim l = "" in
  match String.split_on_char '\n' payload with
  | header :: rung :: rest
    when header = Printf.sprintf "hydra-solve %d" entry_version -> (
      match rest with
      | _ when String.starts_with ~prefix:failed_prefix rung ->
          if List.for_all blank rest then
            Some
              (Raw_failed
                 (String.sub rung
                    (String.length failed_prefix)
                    (String.length rung - String.length failed_prefix)))
          else None
      | vector :: rest when List.for_all blank rest -> (
          match Lp.vector_of_string vector with
          | Some x when Array.length x = Lp.num_vars lp -> (
              match String.split_on_char ' ' rung with
              | [ "rung"; "exact" ] ->
                  if Int_feasible.check lp x then Some (Raw_exact x) else None
              | [ "rung"; "relaxed"; violation ] -> (
                  try
                    Some
                      (Raw_relaxed (x, Hydra_arith.Rat.of_string violation))
                  with Invalid_argument _ | Division_by_zero | Failure _ ->
                    None)
              | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

let unsolved = { tier = Solve; fingerprint = "" }

let solve_view_robust ?(max_nodes = 2000) ?(retries = 1) ?deadline ?cache
    ?state ?(solve_mode = Simplex.Exact) (view : Preprocess.view) =
  try
    if view.Preprocess.subviews = [] then
      (* nothing was solved, so there is nothing worth caching *)
      (Exact (trivial_result view), unsolved)
    else begin
      let problems, lp, n_cc_constraints =
        Obs.with_span "view.formulate" (fun () -> formulate view)
      in
      (* the content address is reported in every provenance (the run
         ledger archives it), not just when a store consumes it *)
      let key, warm_key =
        Obs.with_span "view.keys" (fun () ->
            keys ~max_nodes ~retries view lp n_cc_constraints)
      in
      let relax reason =
        let weight i =
          if i < n_cc_constraints then Hydra_arith.Rat.one
          else consistency_weight
        in
        match
          Obs.with_span "view.relax" (fun () ->
              Relax.solve ?deadline ~max_nodes:(Stdlib.max 1 max_nodes)
                ~mode:solve_mode ~weight lp)
        with
        | Relax.Relaxed { x; total_violation; _ } ->
            Raw_relaxed (x, total_violation)
        | Relax.Timeout -> Raw_failed (reason ^ "; relaxation hit the deadline")
        | Relax.Failed m -> Raw_failed (reason ^ "; relaxation failed: " ^ m)
      in
      (* the root LP's terminal basis, captured for the warm-start hint;
         [attempt] overwrites it on each escalation, keeping the last *)
      let root_basis = ref None in
      let rec attempt ~warm_basis budget tries_left =
        match
          Obs.with_span "view.solve" (fun () ->
              Chaos.tap "solve";
              Int_feasible.solve ~max_nodes:budget ?deadline ~mode:solve_mode
                ?warm_basis ~root_basis lp)
        with
        | Int_feasible.Solution x -> Raw_exact x
        | Int_feasible.Gave_up when tries_left > 0 ->
            (* escalate before degrading: a budget that was merely tight
               often succeeds with a modest multiplier *)
            attempt ~warm_basis (Stdlib.max 1 budget * 4) (tries_left - 1)
        | Int_feasible.Gave_up ->
            relax
              (Printf.sprintf "integer search budget exhausted (%d nodes)"
                 budget)
        | Int_feasible.Timeout -> relax "solve deadline exceeded"
        | Int_feasible.Infeasible -> relax "infeasible cardinality constraints"
      in
      (* in float-first mode a structurally identical earlier solve —
         same view and LP shape, edited right-hand sides — hands the
         solver its terminal basis: a float run starts from it (a dual
         phase repairs it when the edits left it primal infeasible) and
         only its terminal basis is verified, instead of solving cold.
         Lazy so replayed (state/cache-hit) solves never touch the hint
         store; forced before the solve's span opens *)
      let warm_basis =
        lazy
          (match (solve_mode, cache) with
          | Simplex.Float_first, Some c ->
              Option.bind (Cache.find_hint c ~key:warm_key) decode_warm
          | _ -> None)
      in
      (* a solve that ended on the basis it was handed leaves the hint
         as it is: its file already holds that basis *)
      let store_warm () =
        match (cache, !root_basis) with
        | Some c, Some b when Some b <> Lazy.force warm_basis ->
            Cache.store_hint c ~key:warm_key (encode_warm b)
        | _ -> ()
      in
      let finish raw =
        match raw with
        | Raw_exact x ->
            Exact (result_of_counts view problems lp (counts_of_bigint x))
        | Raw_relaxed (x, violation) ->
            Relaxed
              ( result_of_counts view problems lp (counts_of_bigint x),
                violation )
        | Raw_failed m -> Failed m
      in
      (* One lookup chain, state dir then shared cache, and the first
         entry that decodes wins. The run-scoped store also replays
         failures: within one run (same budgets, same deadline
         discipline) that keeps a resumed run on the rung the
         interrupted one landed on. The shared cache never does — a
         failure reflects the budget of the run that produced it — so a
         Failed entry found there is a miss. *)
      let lookup store ~failures =
        Option.bind store (fun c ->
            Cache.find_map c ~key (fun payload ->
                match decode_entry lp payload with
                | Some (Raw_failed _) when not failures -> None
                | d -> d))
      in
      let found =
        Obs.with_span "view.lookup" (fun () ->
            match lookup state ~failures:true with
            | Some raw -> Some (State, raw)
            | None -> (
                match lookup cache ~failures:false with
                | Some raw -> Some (Cache, raw)
                | None ->
                    ignore (Lazy.force warm_basis);
                    None))
      in
      let tier, raw =
        match found with
        | Some hit -> hit
        | None ->
            (Solve, attempt ~warm_basis:(Lazy.force warm_basis) max_nodes retries)
      in
      (* a state dir that missed records the outcome, failures and
         shared-cache hits included, so a later resume depends on
         neither the budget nor the shared cache still holding the
         entry; the shared cache records only a fresh usable solve *)
      Obs.with_span "view.store" (fun () ->
          let record = Option.iter (fun c -> Cache.store c ~key (encode_entry raw)) in
          if tier <> State then record state;
          (match (tier, raw) with
          | Solve, (Raw_exact _ | Raw_relaxed _) -> record cache
          | _ -> ());
          store_warm ());
      (finish raw, { tier; fingerprint = key })
    end
  with
  | Formulation_error m -> (Failed m, unsolved)
  | Preprocess.Preprocess_error m -> (Failed m, unsolved)
  | e when not (Chaos.is_injected e) -> (Failed (Printexc.to_string e), unsolved)
