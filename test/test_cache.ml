(* Tests for hydra.cache and the cache-aware solve path: fingerprint
   sensitivity (reordered-but-equivalent workloads hit, any content or
   budget change misses), corruption tolerance (bad entries degrade to
   misses, never crash), and the replay contract (a warm regeneration is
   served 100% from the cache and produces a byte-identical summary and
   identical per-view statuses, at any jobs count). *)

module Cache = Hydra_cache.Cache
module Formulate = Hydra_core.Formulate
module Pipeline = Hydra_core.Pipeline
module Preprocess = Hydra_core.Preprocess
module Summary = Hydra_core.Summary
module Cc_parser = Hydra_workload.Cc_parser

let tmpdir () =
  let d = Filename.temp_file "hydra_test_cache" "" in
  Sys.remove d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_cache f =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with _ -> ()) (fun () ->
      f (Cache.create ~dir))

(* ---- the generic store ---- *)

let test_store_roundtrip () =
  with_cache (fun c ->
      let key = String.make 32 'a' in
      Alcotest.(check (option string)) "empty cache misses" None
        (Cache.find c ~key);
      Cache.store c ~key "payload bytes\nwith newline";
      Alcotest.(check (option string))
        "stored payload comes back" (Some "payload bytes\nwith newline")
        (Cache.find c ~key);
      let s = Cache.stats c in
      Alcotest.(check int) "one hit" 1 s.Cache.hits;
      Alcotest.(check int) "one miss" 1 s.Cache.misses;
      Alcotest.(check int) "one store" 1 s.Cache.stores)

let test_nested_dir_created () =
  let root = tmpdir () in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  Fun.protect
    ~finally:(fun () ->
      try
        rm_rf dir;
        Unix.rmdir (Filename.concat root "a");
        Unix.rmdir root
      with _ -> ())
    (fun () ->
      let c = Cache.create ~dir in
      Cache.store c ~key:"00ff" "x";
      Alcotest.(check (option string)) "nested dir works" (Some "x")
        (Cache.find c ~key:"00ff"))

let corrupt_with bytes c key =
  let path = Cache.entry_path c ~key in
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let test_corruption_is_a_miss () =
  with_cache (fun c ->
      let key = String.make 32 'b' in
      Cache.store c ~key "the payload";
      (* truncation *)
      corrupt_with "hydra-cache" c key;
      Alcotest.(check (option string)) "truncated entry misses" None
        (Cache.find c ~key);
      (* wrong digest *)
      corrupt_with
        (Printf.sprintf "hydra-cache %d %s\npayload 3 %s\nabc"
           Cache.format_version key
           (Digest.to_hex (Digest.string "not abc")))
        c key;
      Alcotest.(check (option string)) "digest mismatch misses" None
        (Cache.find c ~key);
      (* trailing garbage after a valid payload *)
      corrupt_with
        (Printf.sprintf "hydra-cache %d %s\npayload 3 %s\nabcEXTRA"
           Cache.format_version key
           (Digest.to_hex (Digest.string "abc")))
        c key;
      Alcotest.(check (option string)) "trailing bytes miss" None
        (Cache.find c ~key);
      (* foreign format version *)
      corrupt_with
        (Printf.sprintf "hydra-cache %d %s\npayload 1 %s\nz"
           (Cache.format_version + 1)
           key
           (Digest.to_hex (Digest.string "z")))
        c key;
      Alcotest.(check (option string)) "version mismatch misses" None
        (Cache.find c ~key);
      (* binary garbage *)
      corrupt_with "\x00\x01\x02\xff" c key;
      Alcotest.(check (option string)) "binary garbage misses" None
        (Cache.find c ~key);
      (* a fresh store over the corrupt entry works again *)
      Cache.store c ~key "recovered";
      Alcotest.(check (option string)) "store over corruption recovers"
        (Some "recovered") (Cache.find c ~key))

let test_non_hex_key_rehash () =
  with_cache (fun c ->
      (* a key with path separators must not escape the cache directory *)
      let key = "../../../etc/passwd" in
      Cache.store c ~key "safe";
      Alcotest.(check (option string)) "odd key round-trips" (Some "safe")
        (Cache.find c ~key);
      Alcotest.(check bool) "entry lives inside the cache dir" true
        (String.length (Cache.entry_path c ~key) > String.length (Cache.dir c)
        && String.sub (Cache.entry_path c ~key) 0 (String.length (Cache.dir c))
           = Cache.dir c))

(* ---- fingerprints ---- *)

let spec_text =
  {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 400;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
cc |sigma(S.A in [20,60) and T.C in [2,3))(R join S join T)| = 30000;
cc |delta(S.A)(sigma(S.A in [20,60))(S))| = 12;
|}

(* same CC set, textually permuted *)
let spec_text_shuffled =
  {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |sigma(S.A in [20,60) and T.C in [2,3))(R join S join T)| = 30000;
cc |delta(S.A)(sigma(S.A in [20,60))(S))| = 12;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |T| = 1500; cc |S| = 700; cc |R| = 80000;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
cc |sigma(S.A in [20,60))(S)| = 400;
|}

(* one cardinality nudged by one tuple *)
let spec_text_nudged =
  {|
table S (A int [0,100), B int [0,50));
table T (C int [0,10));
table R (S_fk -> S, T_fk -> T);
cc |R| = 80000; cc |S| = 700; cc |T| = 1500;
cc |sigma(S.A in [20,60))(S)| = 401;
cc |sigma(T.C in [2,3))(T)| = 900;
cc |sigma(S.A in [20,60))(R join S)| = 50000;
cc |sigma(S.A in [20,60) and T.C in [2,3))(R join S join T)| = 30000;
cc |delta(S.A)(sigma(S.A in [20,60))(S))| = 12;
|}

let views_of text =
  let spec = Cc_parser.parse text in
  Preprocess.run spec.Cc_parser.schema spec.Cc_parser.ccs

let fingerprints ?max_nodes ?retries text =
  List.map
    (fun (v : Preprocess.view) ->
      (v.Preprocess.vrel, Formulate.fingerprint ?max_nodes ?retries v))
    (views_of text)

let test_fingerprint_canonical () =
  Alcotest.(check (list (pair string string)))
    "reordered but equivalent workloads fingerprint identically"
    (fingerprints spec_text)
    (fingerprints spec_text_shuffled)

let test_fingerprint_sensitivity () =
  let base = fingerprints spec_text in
  let nudged = fingerprints spec_text_nudged in
  (* only S's CC changed: S must differ, T must not *)
  let f rel l = List.assoc rel l in
  Alcotest.(check bool) "changed CC changes its view's fingerprint" false
    (f "S" base = f "S" nudged);
  Alcotest.(check string) "untouched view keeps its fingerprint" (f "T" base)
    (f "T" nudged);
  (* budgets are part of the key *)
  let tight = fingerprints ~max_nodes:7 spec_text in
  Alcotest.(check bool) "max_nodes changes every fingerprint" false
    (List.exists2 (fun (_, a) (_, b) -> a = b) base tight);
  let retried = fingerprints ~retries:3 spec_text in
  Alcotest.(check bool) "retries changes every fingerprint" false
    (List.exists2 (fun (_, a) (_, b) -> a = b) base retried)

(* The keys are content addresses, so the renderings behind them are
   frozen: a float-first run of [spec_text] stores one solve entry and
   one warm-start hint per view, under exactly these names. *)
let test_entry_names_stable () =
  with_cache (fun c ->
      let spec = Cc_parser.parse spec_text in
      ignore
        (Pipeline.regenerate ~cache:c
           ~solve_mode:Hydra_lp.Simplex.Float_first spec.Cc_parser.schema
           spec.Cc_parser.ccs);
      Alcotest.(check (list string))
        "solve and warm keys"
        [
          "0540dc05f9de4ff8731b3bbe6751d504.entry";
          "23d3cbee36acaf234b8984b507532c0c.entry";
          "49146bd2c76ec6dd6ad6b9383153a009.entry";
          "5e57c6e344159154aab8b579d9094e0a.entry";
          "7bf1d0deeee56cde07d73f40b49ae663.entry";
          "dc9d448b3a1f57faab66b7e0f4fddc0a.entry";
        ]
        (List.sort compare (Array.to_list (Sys.readdir (Cache.dir c)))))

(* ---- the replay contract through the pipeline ---- *)

let summary_bytes s =
  let path = Filename.temp_file "hydra_test_cache" ".summary" in
  Summary.save path s;
  let ic = open_in_bin path in
  let b =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  b

let statuses (r : Pipeline.result) =
  List.map
    (fun (v : Pipeline.view_stats) ->
      ( v.Pipeline.rel,
        match v.Pipeline.status with
        | Pipeline.Exact -> "exact"
        | Pipeline.Relaxed _ -> "relaxed"
        | Pipeline.Fallback _ -> "fallback" ))
    r.Pipeline.views

let tiers (r : Pipeline.result) =
  List.map (fun (v : Pipeline.view_stats) -> v.Pipeline.tier) r.Pipeline.views

let test_warm_replay_identical () =
  with_cache (fun c ->
      let spec = Cc_parser.parse spec_text in
      let run ?(jobs = 1) () =
        Pipeline.regenerate ~jobs ~cache:c spec.Cc_parser.schema
          spec.Cc_parser.ccs
      in
      let cold = run () in
      Alcotest.(check bool) "cold run misses every view" true
        (List.for_all (( = ) Formulate.Solve) (tiers cold));
      let after_cold = Cache.stats c in
      Alcotest.(check int) "cold stores one entry per view"
        after_cold.Cache.misses after_cold.Cache.stores;
      let warm = run () in
      Alcotest.(check bool) "warm run hits every view" true
        (List.for_all (( = ) Formulate.Cache) (tiers warm));
      Alcotest.(check string) "warm summary is byte-identical"
        (summary_bytes cold.Pipeline.summary)
        (summary_bytes warm.Pipeline.summary);
      Alcotest.(check (list (pair string string)))
        "warm statuses identical" (statuses cold) (statuses warm);
      (* jobs-invariance: a pooled warm run replays the same bytes *)
      let warm4 = run ~jobs:4 () in
      Alcotest.(check bool) "jobs=4 warm run hits every view" true
        (List.for_all (( = ) Formulate.Cache) (tiers warm4));
      Alcotest.(check string) "jobs=4 warm summary is byte-identical"
        (summary_bytes cold.Pipeline.summary)
        (summary_bytes warm4.Pipeline.summary))

let test_no_stores_means_solve () =
  let module Obs = Hydra_obs.Obs in
  let spec = Cc_parser.parse spec_text in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let before = Obs.snapshot () in
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was_enabled)
      (fun () -> Pipeline.regenerate spec.Cc_parser.schema spec.Cc_parser.ccs)
  in
  Alcotest.(check bool) "without stores every view is tier Solve" true
    (List.for_all (( = ) Formulate.Solve) (tiers r));
  Alcotest.(check (list (pair string (float 0.0)))) "no cache.* counter moves" []
    (List.filter
       (fun (k, _) -> String.starts_with ~prefix:"cache." k)
       (Obs.diff before (Obs.snapshot ())))

let test_corrupt_entry_resolves () =
  with_cache (fun c ->
      let spec = Cc_parser.parse spec_text in
      let run () =
        Pipeline.regenerate ~cache:c spec.Cc_parser.schema spec.Cc_parser.ccs
      in
      let cold = run () in
      (* garble every stored entry in a different way *)
      let i = ref 0 in
      Array.iter
        (fun f ->
          let path = Filename.concat (Cache.dir c) f in
          incr i;
          let oc = open_out_bin path in
          (match !i mod 3 with
          | 0 -> () (* empty file *)
          | 1 -> output_string oc "garbage"
          | _ -> output_string oc (String.make 4096 '\xff'));
          close_out oc)
        (Sys.readdir (Cache.dir c));
      let rerun = run () in
      Alcotest.(check bool) "corrupt entries all miss" true
        (List.for_all (( = ) Formulate.Solve) (tiers rerun));
      Alcotest.(check string) "resolved run matches the cold run"
        (summary_bytes cold.Pipeline.summary)
        (summary_bytes rerun.Pipeline.summary);
      (* the re-store repaired the cache: a third run hits *)
      let warm = run () in
      Alcotest.(check bool) "repaired cache hits again" true
        (List.for_all (( = ) Formulate.Cache) (tiers warm)))

let test_hits_counted_after_decode () =
  (* a well-formed entry under S's key, digest and all, whose vector has
     the wrong length: the store reads it fine, the solve path rejects
     it. It must count as the miss it is, in both tallies *)
  with_cache (fun c ->
      let spec = Cc_parser.parse spec_text in
      let run c =
        Pipeline.regenerate ~cache:c spec.Cc_parser.schema spec.Cc_parser.ccs
      in
      let cold = run c in
      let s_key =
        (List.find (fun (v : Pipeline.view_stats) -> v.Pipeline.rel = "S")
           cold.Pipeline.views)
          .Pipeline.fingerprint
      in
      Cache.store c ~key:s_key "hydra-solve 3\nrung exact\n1 0\n";
      let c = Cache.create ~dir:(Cache.dir c) in
      let m_hit = Hydra_obs.Obs.counter "cache.hit" in
      let was_enabled = Hydra_obs.Obs.enabled () in
      Hydra_obs.Obs.set_enabled true;
      let before = Hydra_obs.Obs.counter_value m_hit in
      let warm =
        Fun.protect
          ~finally:(fun () -> Hydra_obs.Obs.set_enabled was_enabled)
          (fun () -> run c)
      in
      let obs_hits = Hydra_obs.Obs.counter_value m_hit - before in
      Alcotest.(check (list (pair string bool)))
        "only S misses"
        [ ("S", false); ("T", true); ("R", true) ]
        (List.map
           (fun (v : Pipeline.view_stats) ->
             (v.Pipeline.rel, v.Pipeline.tier = Formulate.Cache))
           warm.Pipeline.views);
      Alcotest.(check int) "stats.hits = views served" 2
        (Cache.stats c).Cache.hits;
      Alcotest.(check int) "stats.misses" 1 (Cache.stats c).Cache.misses;
      Alcotest.(check int) "cache.hit counter = views served" 2 obs_hits;
      Alcotest.(check string) "rejected entry re-solves identically"
        (summary_bytes cold.Pipeline.summary)
        (summary_bytes warm.Pipeline.summary))

let test_v2_entry_is_a_miss () =
  (* version 2 wrote a fourth, never-read basis line; a v2 payload with
     the right vector, under the right key, is still not this build's
     entry *)
  with_cache (fun c ->
      let spec = Cc_parser.parse spec_text in
      let run c =
        Pipeline.regenerate ~cache:c spec.Cc_parser.schema spec.Cc_parser.ccs
      in
      let cold = run c in
      let s_key =
        (List.find (fun (v : Pipeline.view_stats) -> v.Pipeline.rel = "S")
           cold.Pipeline.views)
          .Pipeline.fingerprint
      in
      let v3 = Option.get (Cache.find c ~key:s_key) in
      let vector =
        match String.split_on_char '\n' v3 with
        | [ "hydra-solve 3"; "rung exact"; vector; "" ] -> vector
        | _ -> Alcotest.failf "unexpected v3 entry %S" v3
      in
      Cache.store c ~key:s_key
        (Printf.sprintf "hydra-solve 2\nrung exact\n%s\nbasis -\n" vector);
      let c = Cache.create ~dir:(Cache.dir c) in
      let warm = run c in
      Alcotest.(check (list (pair string bool)))
        "only S misses"
        [ ("S", false); ("T", true); ("R", true) ]
        (List.map
           (fun (v : Pipeline.view_stats) ->
             (v.Pipeline.rel, v.Pipeline.tier = Formulate.Cache))
           warm.Pipeline.views);
      Alcotest.(check string) "the miss re-solves identically"
        (summary_bytes cold.Pipeline.summary)
        (summary_bytes warm.Pipeline.summary);
      Alcotest.(check (option string)) "and re-stores the v3 entry" (Some v3)
        (Cache.find c ~key:s_key))

let test_relaxed_outcomes_replay () =
  (* an infeasible workload lands on the Relaxed rung; its closest-
     feasible solution must replay from the cache exactly like an exact
     one, violations included *)
  let text =
    {|
table S (A int [0,10));
cc |S| = 100;
cc |sigma(S.A in [0,5))(S)| = 80;
cc |sigma(S.A in [5,10))(S)| = 80;
|}
  in
  with_cache (fun c ->
      let spec = Cc_parser.parse text in
      let run () =
        Pipeline.regenerate ~cache:c spec.Cc_parser.schema spec.Cc_parser.ccs
      in
      let cold = run () in
      Alcotest.(check (list (pair string string)))
        "workload is relaxed"
        [ ("S", "relaxed") ]
        (statuses cold);
      let warm = run () in
      Alcotest.(check bool) "relaxed solve replays from cache" true
        (List.for_all (( = ) Formulate.Cache) (tiers warm));
      Alcotest.(check string) "replayed relaxed summary identical"
        (summary_bytes cold.Pipeline.summary)
        (summary_bytes warm.Pipeline.summary);
      let viols (r : Pipeline.result) =
        List.concat_map
          (fun (v : Pipeline.view_stats) ->
            match v.Pipeline.status with
            | Pipeline.Relaxed vs ->
                List.map
                  (fun (x : Pipeline.violation) ->
                    (x.Pipeline.v_expected, x.Pipeline.v_achieved))
                  vs
            | _ -> [])
          r.Pipeline.views
      in
      Alcotest.(check (list (pair int int)))
        "replayed violations identical" (viols cold) (viols warm))

let suite =
  [
    ( "cache-store",
      [
        Alcotest.test_case "store/find round-trip + stats" `Quick
          test_store_roundtrip;
        Alcotest.test_case "nested cache dir is created" `Quick
          test_nested_dir_created;
        Alcotest.test_case "corrupt entries are misses, never raise" `Quick
          test_corruption_is_a_miss;
        Alcotest.test_case "non-hex keys are re-hashed, cannot escape" `Quick
          test_non_hex_key_rehash;
      ] );
    ( "cache-fingerprint",
      [
        Alcotest.test_case "reordered equivalent workloads hit" `Quick
          test_fingerprint_canonical;
        Alcotest.test_case "content and budget changes miss" `Quick
          test_fingerprint_sensitivity;
        Alcotest.test_case "entry names are stable" `Quick
          test_entry_names_stable;
      ] );
    ( "cache-replay",
      [
        Alcotest.test_case "warm run: 100% hits, byte-identical, any jobs"
          `Quick test_warm_replay_identical;
        Alcotest.test_case "without stores every view is tier Solve" `Quick
          test_no_stores_means_solve;
        Alcotest.test_case "corrupt entries re-solve and repair the cache"
          `Quick test_corrupt_entry_resolves;
        Alcotest.test_case "relaxed outcomes replay with violations" `Quick
          test_relaxed_outcomes_replay;
        Alcotest.test_case "a version-2 solve entry is a miss" `Quick
          test_v2_entry_is_a_miss;
        Alcotest.test_case "hits are counted after the entry decodes" `Quick
          test_hits_counted_after_decode;
      ] );
  ]

let () = Alcotest.run "hydra-cache" suite
