(* Span arithmetic of the benchmark's traced run. *)

open Hbench_trace.Trace

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let sp id parent name start stop =
  { Hydra_obs.Obs.sp_id = id; sp_parent = parent; sp_name = name;
    sp_start = start; sp_end = stop; sp_attrs = [] }

let () =
  (* union of intervals: overlaps count once, clipping to the window *)
  check "covered disjoint" (close (covered ~lo:0. ~hi:10. [ (1., 2.); (4., 6.) ]) 3.);
  check "covered overlap"
    (close (covered ~lo:0. ~hi:10. [ (1., 5.); (3., 7.); (6., 8.) ]) 7.);
  check "covered nested" (close (covered ~lo:0. ~hi:10. [ (1., 9.); (2., 3.) ]) 8.);
  check "covered clipped" (close (covered ~lo:2. ~hi:4. [ (0., 3.); (3.5, 9.) ]) 1.5);
  check "covered empty" (close (covered ~lo:0. ~hi:1. []) 0.)

let () =
  (* self time = duration minus the union of the children's intervals *)
  let root = sp 0 (-1) "region" 0. 10. in
  let a = sp 1 0 "a" 1. 4. in
  let b = sp 2 0 "b" 3. 6. in  (* overlaps a: [1,6] covered once *)
  let d = sp 4 0 "d" 9. 12. in  (* runs past the root: clipped to [9,10] *)
  let c = sp 3 1 "c" 1.5 2.5 in
  check "self root" (close (self_time root [ a; b; d ]) 4.);
  check "self a" (close (self_time a [ c ]) 2.);
  check "self leaf" (close (self_time c []) 1.)

let () =
  (* residual = end-to-end minus the named layers' self times *)
  check "residual" (close (residual ~total:10. [ 2.; 3.; 0.5 ]) 4.5);
  (* a region whose public-call span [Call] holds program layers; the
     call's own self time and the region's are not explained *)
  let root = sp 0 (-1) "region" 0. 10. in
  let spans =
    [
      root;
      sp 1 0 "Call" 0.5 9.5;
      sp 2 1 "solve" 1. 8.;
      sp 3 2 "inner" 2. 3.;
      sp 4 1 "assemble" 8. 9.;
      sp 5 (-1) "elsewhere" 0. 10.;  (* not under the region *)
    ]
  in
  let program n = match n.[0] with 'a' .. 'z' -> true | _ -> false in
  let a = attribute ~layer:program spans root in
  check "attribute total" (close a.total 10.);
  check "attribute layers"
    (List.map fst a.layers = [ "Call"; "assemble"; "inner"; "solve" ]);
  check "attribute call self" (close (List.assoc "Call" a.layers) 1.);
  check "attribute solve self" (close (List.assoc "solve" a.layers) 6.);
  (* 10 - (6 + 1 + 1): the root's 1 s and the call's 1 s stay unexplained *)
  check "attribute residual" (close a.unattributed 2.);
  check "attribute frac" (close (attributed_frac a) 0.8);
  let all = attribute ~layer:(fun _ -> true) spans root in
  check "attribute every layer" (close all.unattributed 1.);
  let none = attribute ~layer:(fun _ -> false) spans root in
  check "attribute no layer" (close none.unattributed 10.);
  check "attribute frac zero" (close (attributed_frac none) 0.)

let () =
  (* metric-name grammar *)
  List.iter
    (fun n -> check ("valid " ^ n) (valid_name n))
    [ "summary_s"; "lp.float_pivots"; "engine.datagen.rows_out"; "0-x"; "a" ];
  List.iter
    (fun n -> check ("invalid " ^ n) (not (valid_name n)))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "lp:s"; String.make 65 'a' ];
  check "valid 64" (valid_name (String.make 64 'a'))

let () =
  if !failures > 0 then exit 1;
  print_endline "trace: all checks passed"
