(* The engine behind pivot.mli, which states its contract.

   The compiler has no flambda, so calls into [F] are indirect and
   never inlined, and a float crossing that boundary would be boxed.
   The interface is therefore per column or per row and returns
   immediates; the FTRAN/BTRAN sweeps stay inside the instance. *)

open Hydra_arith
module Mclock = Hydra_obs.Mclock
module Obs = Hydra_obs.Obs

let m_dual_pivots = Obs.counter "simplex.dual_pivots"

type tableau = {
  m : int;
  n : int;
  cidx : int array array;
  cval : Rat.t array array;
  b : Rat.t array;
  art_first : int;
}

type budget = { deadline : float option; max_iters : int option }

let out_of_budget budget iter_count =
  (match budget.max_iters with Some k -> iter_count > k | None -> false)
  ||
  match budget.deadline with
  | Some d -> Mclock.now () > d
  | None -> false

type sign = Pos | Neg | Zero | Unsure

type event = Pivot | Degenerate | Bland_fallback

exception Undecided

module type ARITH = sig
  type t

  val set_costs : t -> Rat.t array -> unit
  val price : t -> int array -> unit
  val reduced_cost : t -> int -> sign
  val column : t -> int -> unit
  val column_sign : t -> int -> sign
  val ratio : t -> int -> int -> sign
  val basic_sign : t -> int -> sign
  val compare_basic : t -> int -> int -> sign
  val row_entry : t -> int -> int -> sign
  val dual_ratio : t -> int -> int -> sign
  val artificial_sum : t -> int array -> art_first:int -> sign
  val pivot : t -> int -> int -> degenerate:bool -> unit
  val count : event -> unit
end

type outcome = Optimal | Infeasible | Unbounded | Timeout | Aborted

(* consecutive degenerate pivots after which pricing falls back to
   Bland's rule, whose anti-cycling guarantee restores termination *)
let bland_after = 40

module Make (F : ARITH) = struct
  let decided = function Unsure -> raise Undecided | s -> s
  let is q s = decided s = q

  (* One simplex run minimizing the installed costs. [allowed j] filters
     columns that may enter; [in_basis] mirrors [basis].

     Pricing is round-robin partial pricing: the first negative reduced
     cost scanning from just after the previous entering column, which
     avoids both Bland's stalling on low indices and Dantzig's full
     scans. After [bland_after] consecutive degenerate pivots it scans
     from column 0 (Bland's rule) until a pivot makes progress. *)
  let optimize ?pivots ~budget t s basis in_basis allowed iter_count =
    let degenerate_run = ref 0 and rr_start = ref 0 and was_bland = ref false in
    let rec loop () =
      incr iter_count;
      F.price s basis;
      let bland = !degenerate_run > bland_after in
      if bland && not !was_bland then F.count Bland_fallback;
      was_bland := bland;
      let rec scan k =
        if k >= t.n then -1
        else
          let j = if bland then k else (!rr_start + k) mod t.n in
          if (not in_basis.(j)) && allowed j && is Neg (F.reduced_cost s j)
          then j
          else scan (k + 1)
      in
      let entering = scan 0 in
      if entering < 0 then Optimal
      else if out_of_budget budget !iter_count then Timeout
      else begin
        if not bland then rr_start := entering + 1;
        F.column s entering;
        (* ratio test; ties break on the smallest basis variable index *)
        let leave = ref (-1) in
        for i = 0 to t.m - 1 do
          if is Pos (F.column_sign s i) then begin
            let l = !leave in
            if l < 0 then leave := i
            else
              match decided (F.ratio s i l) with
              | Neg -> leave := i
              | Zero -> if basis.(i) < basis.(l) then leave := i
              | Pos | Unsure -> ()
          end
        done;
        if !leave < 0 then Unbounded
        else begin
          let r = !leave in
          F.count Pivot;
          Option.iter incr pivots;
          (* the step xb_r / d_r is zero exactly when xb_r is *)
          let degenerate =
            match F.basic_sign s r with
            | Zero -> true
            | Pos -> false
            | Neg | Unsure -> raise Undecided
          in
          if degenerate then begin
            incr degenerate_run;
            F.count Degenerate
          end
          else degenerate_run := 0;
          in_basis.(basis.(r)) <- false;
          in_basis.(entering) <- true;
          basis.(r) <- entering;
          F.pivot s r entering ~degenerate;
          loop ()
        end
      end
    in
    loop ()

  (* Drive basic artificials (at zero level, so every pivot here is
     degenerate) out of the basis so phase II can never raise them. A
     row where no structural or slack column has a nonzero entry is
     linearly dependent; its artificial then stays pinned at zero under
     any pivot and can safely remain basic. *)
  let drive_out t s basis in_basis =
    for r = 0 to t.m - 1 do
      if basis.(r) >= t.art_first then begin
        let rec find j =
          if j < t.art_first then
            if in_basis.(j) then find (j + 1)
            else begin
              F.column s j;
              if is Zero (F.column_sign s r) then find (j + 1)
              else begin
                in_basis.(basis.(r)) <- false;
                in_basis.(j) <- true;
                basis.(r) <- j;
                F.pivot s r j ~degenerate:true
              end
            end
        in
        find 0
      end
    done

  (* The dual phase: from a dual-feasible basis, pivot until every basic
     value is nonnegative. The leaving row holds the most negative xb;
     the entering column minimizes d_j / -alpha_rj over the nonbasic
     structural and slack columns with alpha_rj < 0, so every reduced
     cost stays nonnegative. Ties break on the smallest basis index
     (leaving) and the smallest column index (entering). After
     [bland_after] consecutive zero-ratio pivots the leaving row is the
     negative one with the smallest basis index (Bland's rule) until a
     pivot makes progress. With no entering column the phase gives up
     ([Aborted]): artificials may not enter, so that proves nothing. *)
  let dual ?pivots ~budget t s basis in_basis iter_count =
    let degenerate_run = ref 0 and was_bland = ref false in
    let rec loop () =
      let bland = !degenerate_run > bland_after in
      if bland && not !was_bland then F.count Bland_fallback;
      was_bland := bland;
      let leave = ref (-1) in
      for i = 0 to t.m - 1 do
        if is Neg (F.basic_sign s i) then begin
          let l = !leave in
          if l < 0 then leave := i
          else
            (* under Bland's rule every negative row ties on value *)
            match if bland then Zero else decided (F.compare_basic s i l) with
            | Neg -> leave := i
            | Zero -> if basis.(i) < basis.(l) then leave := i
            | Pos | Unsure -> ()
        end
      done;
      if !leave < 0 then Optimal
      else begin
        incr iter_count;
        if out_of_budget budget !iter_count then Timeout
        else begin
          let r = !leave in
          F.price s basis;
          let enter = ref (-1) and zero_ratio = ref false in
          for j = 0 to t.art_first - 1 do
            if (not in_basis.(j)) && is Neg (F.row_entry s r j) then begin
              (* d_j >= 0 holds exactly; a float answer of Neg is wrong *)
              let dj = decided (F.reduced_cost s j) in
              if dj = Neg then raise Undecided;
              if !enter < 0 || is Neg (F.dual_ratio s j !enter) then begin
                enter := j;
                zero_ratio := dj = Zero
              end
            end
          done;
          if !enter < 0 then Aborted
          else begin
            let q = !enter in
            F.count Pivot;
            Obs.incr m_dual_pivots 1;
            Option.iter incr pivots;
            if !zero_ratio then incr degenerate_run else degenerate_run := 0;
            F.column s q;
            in_basis.(basis.(r)) <- false;
            in_basis.(q) <- true;
            basis.(r) <- q;
            F.pivot s r q ~degenerate:false;
            loop ()
          end
        end
      end
    in
    loop ()

  (* phase I, the drive-out and phase II from a primal-feasible state *)
  let phases ~optimize t s basis in_basis ~objective =
    (* phase I: minimize the sum of artificials *)
    F.set_costs s
      (Array.init t.n (fun j ->
           if j >= t.art_first then Rat.one else Rat.zero));
    match optimize (fun _ -> true) with
    | Timeout -> Timeout
    | Unbounded -> Infeasible (* cannot happen: phase I is bounded below *)
    | Optimal | Infeasible | Aborted -> (
        match F.artificial_sum s basis ~art_first:t.art_first with
        | Pos -> Infeasible
        | Neg | Unsure -> Aborted
        | Zero -> (
            match objective with
            | None -> Optimal
            | Some obj ->
                drive_out t s basis in_basis;
                let c = Array.make t.n Rat.zero in
                List.iter (fun (v, k) -> c.(v) <- Rat.add c.(v) k) obj;
                F.set_costs s c;
                (* artificials stay out in phase II *)
                optimize (fun j -> j < t.art_first)))

  let run ?pivots ?(repair = false) ~budget t s basis ~objective iter_count =
    let in_basis = Array.make t.n false in
    Array.iter (fun j -> in_basis.(j) <- true) basis;
    let optimize allowed =
      optimize ?pivots ~budget t s basis in_basis allowed iter_count
    in
    try
      let primal_feasible =
        if not repair then Optimal
        else begin
          (* warm-start costs: zero on the start basis, so y = 0 and
             every reduced cost is 0 or 1 — dual feasible, with an
             informative ratio test *)
          F.set_costs s
            (Array.map (fun b -> if b then Rat.zero else Rat.one) in_basis);
          dual ?pivots ~budget t s basis in_basis iter_count
        end
      in
      match primal_feasible with
      | Optimal -> phases ~optimize t s basis in_basis ~objective
      | o -> o
    with Undecided -> Aborted
end
