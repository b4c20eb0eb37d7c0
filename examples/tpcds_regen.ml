(* TPC-DS-like regeneration: the paper's headline scenario (Sec. 7).

   Generates a synthetic "client" warehouse, derives the 131-query complex
   workload WLc and its cardinality constraints from annotated query
   plans, anonymizes them, regenerates a database summary at the vendor
   site, and validates volumetric similarity of the regenerated data.
   Run with:  dune exec examples/tpcds_regen.exe  [-- <scale-factor>] *)

module T = Hydra_benchmarks.Tpcds

let () =
  let sf =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 100
  in
  Printf.printf "client site: generating TPC-DS-like warehouse (sf=%d)...\n%!" sf;
  let client_db = T.generate ~sf () in
  let workload = T.workload_complex () in
  Printf.printf "client site: executing %d queries for AQPs...\n%!"
    (Hydra_workload.Workload.num_queries workload);
  let ccs = Hydra_workload.Workload.extract_ccs client_db workload in
  Printf.printf "  -> %d distinct cardinality constraints\n%!" (List.length ccs);

  (* the client masks names and values before shipping (Sec. 3.1) *)
  let anon = Hydra_workload.Anonymizer.create T.schema in
  let masked_schema = Hydra_workload.Anonymizer.anonymize_schema anon T.schema in
  let masked_ccs = List.map (Hydra_workload.Anonymizer.anonymize_cc anon) ccs in
  Printf.printf "anonymizer: %d relations masked (e.g. store_sales -> %s)\n%!"
    (List.length (Hydra_rel.Schema.relations masked_schema))
    (Hydra_workload.Anonymizer.masked_rel anon "store_sales");

  (* vendor site: summary generation *)
  let masked_sizes =
    List.map
      (fun (r, n) -> (Hydra_workload.Anonymizer.masked_rel anon r, n))
      (T.sizes ~sf)
  in
  let t0 = Unix.gettimeofday () in
  let result =
    Hydra_core.Pipeline.regenerate ~sizes:masked_sizes
      ~solve_mode:Hydra_lp.Simplex.Float_first masked_schema masked_ccs
  in
  let summary = result.Hydra_core.Pipeline.summary in
  Printf.printf "vendor site: summary built in %.2fs (%d rows for %d tuples)\n%!"
    (Unix.gettimeofday () -. t0)
    (Hydra_core.Summary.summary_rows summary)
    (Hydra_core.Summary.total_rows summary);
  List.iter
    (fun (v : Hydra_core.Pipeline.view_stats) ->
      if v.Hydra_core.Pipeline.num_lp_vars > 100 then
        Printf.printf "  %-8s %6d LP variables, solved in %.2fs\n"
          v.Hydra_core.Pipeline.rel v.Hydra_core.Pipeline.num_lp_vars
          v.Hydra_core.Pipeline.solve_seconds)
    result.Hydra_core.Pipeline.views;

  (* materialize + validate against the (anonymized) constraints *)
  let t0 = Unix.gettimeofday () in
  let vendor_db = Hydra_core.Tuple_gen.materialize summary in
  Printf.printf "materialized %d relations in %.2fs\n%!"
    (List.length (Hydra_engine.Database.relation_names vendor_db))
    (Unix.gettimeofday () -. t0);
  let v = Hydra_core.Validate.check vendor_db masked_ccs in
  Format.printf "volumetric similarity: %a@." Hydra_core.Validate.pp v;
  Format.printf "coverage: within 1%%: %.1f%%, within 10%%: %.1f%%@."
    (100.0 *. Hydra_core.Validate.coverage_at v 0.01)
    (100.0 *. Hydra_core.Validate.coverage_at v 0.1);

  (* CODD-style metadata matching: the client catalog (anonymized) against
     the regenerated catalog — row-count mismatches are exactly the
     integrity-repair additions *)
  let client_md =
    Hydra_codd.Metadata.capture client_db |> fun md ->
    {
      Hydra_codd.Metadata.stats =
        List.map
          (fun (s : Hydra_codd.Metadata.relation_stats) ->
            { s with Hydra_codd.Metadata.rel =
                Hydra_workload.Anonymizer.masked_rel anon s.Hydra_codd.Metadata.rel })
          md.Hydra_codd.Metadata.stats;
    }
  in
  let vendor_md = Hydra_codd.Metadata.capture vendor_db in
  let issues = Hydra_codd.Metadata.match_against ~reference:client_md vendor_md in
  Printf.printf "metadata matching: %d discrepancies%s\n"
    (List.length issues)
    (if issues = [] then "" else " (integrity-repair row additions)");
  List.iteri
    (fun i (m : Hydra_codd.Metadata.mismatch) ->
      if i < 5 then
        Printf.printf "  %s: expected %s, got %s\n" m.Hydra_codd.Metadata.what
          m.Hydra_codd.Metadata.expected m.Hydra_codd.Metadata.got)
    issues
