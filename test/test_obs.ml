open Gql_graph
open Gql_matcher
module M = Gql_obs.Metrics

(* --- the disabled instance is inert ------------------------------------- *)

let test_disabled () =
  let d = M.disabled in
  Alcotest.(check bool) "not enabled" false (M.enabled d);
  M.incr d M.Search_visited;
  M.add d M.Pages_read 42;
  M.observe d M.Candidate_set_size 7;
  Alcotest.(check int) "counter stays 0" 0 (M.get d M.Search_visited);
  Alcotest.(check bool) "no histogram" true
    (M.histo_summary d M.Candidate_set_size = None);
  let r = M.with_span d "phase" (fun () -> 17) in
  Alcotest.(check int) "with_span is just the thunk" 17 r;
  Alcotest.(check int) "no spans recorded" 0 (M.span_count d)

(* --- counters ------------------------------------------------------------ *)

let test_counters () =
  let m = M.create () in
  Alcotest.(check bool) "enabled" true (M.enabled m);
  M.incr m M.Search_visited;
  M.incr m M.Search_visited;
  M.add m M.Pages_read 5;
  Alcotest.(check int) "incr twice" 2 (M.get m M.Search_visited);
  Alcotest.(check int) "add" 5 (M.get m M.Pages_read);
  Alcotest.(check int) "untouched" 0 (M.get m M.Pool_evictions);
  (* names are stable and dotted: they are the JSON/bench keys *)
  Alcotest.(check string) "name" "search.visited"
    (M.counter_name M.Search_visited);
  Alcotest.(check string) "name" "storage.pool_evictions"
    (M.counter_name M.Pool_evictions);
  let names = List.map M.counter_name M.all_counters in
  Alcotest.(check int) "all distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- spans --------------------------------------------------------------- *)

let test_span_nesting () =
  let m = M.create () in
  M.with_span m "a" (fun () ->
      M.with_span m "b" (fun () -> ());
      M.with_span m "b" (fun () -> ()));
  M.with_span m "c" (fun () -> ());
  Alcotest.(check int) "4 spans" 4 (M.span_count m);
  match M.span_forest m with
  | [ a; c ] ->
    Alcotest.(check string) "root a" "a" a.M.s_name;
    Alcotest.(check string) "root c" "c" c.M.s_name;
    Alcotest.(check int) "a count" 1 a.M.s_count;
    (match a.M.s_children with
    | [ b ] ->
      Alcotest.(check string) "child b" "b" b.M.s_name;
      Alcotest.(check int) "same-name siblings aggregate" 2 b.M.s_count;
      Alcotest.(check bool) "children total <= parent total" true
        (b.M.s_total <= a.M.s_total)
    | kids -> Alcotest.failf "expected one aggregated child, got %d" (List.length kids))
  | forest -> Alcotest.failf "expected two roots, got %d" (List.length forest)

exception Boom

let test_span_exception_safe () =
  let m = M.create () in
  (try M.with_span m "outer" (fun () ->
       M.with_span m "dies" (fun () -> raise Boom))
   with Boom -> ());
  Alcotest.(check int) "both spans closed" 2 (M.span_count m);
  (* the parent pointer was restored: a new span is a root, not a child
     of the span that died *)
  M.with_span m "after" (fun () -> ());
  let roots = List.map (fun t -> t.M.s_name) (M.span_forest m) in
  Alcotest.(check (list string)) "after is a root" [ "outer"; "after" ] roots

(* --- the counting instance (service jobs) ------------------------------- *)

let test_counting () =
  let m = M.counting () in
  Alcotest.(check bool) "enabled" true (M.enabled m);
  M.incr m M.Search_visited;
  M.add m M.Search_visited 2;
  M.observe m M.Matches_per_graph 5;
  M.record_drift m ~position:0 ~estimated:2.0 ~actual:3.0;
  Alcotest.(check int) "counts" 3 (M.get m M.Search_visited);
  Alcotest.(check bool) "histogram kept" true
    (match M.histo_summary m M.Matches_per_graph with
    | Some s -> s.M.count = 1 && s.M.max = 5
    | None -> false);
  Alcotest.(check bool) "drift kept" true (M.drift m = [ (0, 1, 2.0, 3.0) ]);
  let r =
    M.with_span m "outer" (fun () -> M.with_span m "inner" (fun () -> 17))
  in
  Alcotest.(check int) "with_span runs the thunk" 17 r;
  (try M.with_span m "dies" (fun () -> raise Boom) with Boom -> ());
  Alcotest.(check int) "no spans recorded" 0 (M.span_count m);
  Alcotest.(check int) "empty forest" 0 (List.length (M.span_forest m));
  (* from a counting instance: counters sum, nothing is grafted *)
  let into = M.create () in
  M.add into M.Search_visited 10;
  M.with_span into "host" (fun () -> M.merge ~into m);
  Alcotest.(check int) "merge sums counters" 13 (M.get into M.Search_visited);
  Alcotest.(check int) "only the host span" 1 (M.span_count into);
  M.merge_counts ~into m;
  Alcotest.(check int) "merge_counts sums counters" 16
    (M.get into M.Search_visited);
  (* into a counting instance: counts, no spans *)
  let c = M.counting () in
  M.merge ~into:c into;
  Alcotest.(check int) "counts merged in" 16 (M.get c M.Search_visited);
  Alcotest.(check int) "no span grafted" 0 (M.span_count c);
  (* [like] keeps the kind: per-domain instances of a counting parent
     record no spans either *)
  Alcotest.(check bool) "like disabled is disabled" true
    (M.like M.disabled == M.disabled);
  let kid_spans parent =
    let k = M.like parent in
    M.with_span k "w" (fun () -> ());
    (M.enabled k, M.span_count k)
  in
  Alcotest.(check (pair bool int)) "like counting" (true, 0) (kid_spans m);
  Alcotest.(check (pair bool int)) "like tracing" (true, 1) (kid_spans into)

(* --- histograms ---------------------------------------------------------- *)

let test_histogram () =
  let m = M.create () in
  List.iter (M.observe m M.Matches_per_graph) [ 1; 2; 3; 4; 100 ];
  match M.histo_summary m M.Matches_per_graph with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
    Alcotest.(check int) "count" 5 s.M.count;
    Alcotest.(check int) "min" 1 s.M.min;
    Alcotest.(check int) "max" 100 s.M.max;
    Alcotest.(check (float 1e-9)) "mean" 22.0 s.M.mean;
    Alcotest.(check bool) "p50 within range" true (s.M.p50 >= 1 && s.M.p50 <= 100);
    Alcotest.(check bool) "p90 >= p50" true (s.M.p90 >= s.M.p50)

let test_histogram_quantile () =
  let m = M.create () in
  Alcotest.(check (option int))
    "empty histogram has no quantiles" None
    (M.histogram_quantile m M.Candidate_set_size 0.5);
  List.iter (M.observe m M.Candidate_set_size) [ 1; 1; 1; 1; 8; 8; 8; 8 ];
  let q x = M.histogram_quantile m M.Candidate_set_size x in
  Alcotest.(check (option int)) "q=0 reads the min bucket" (Some 1) (q 0.0);
  Alcotest.(check (option int)) "p50 stays in the low half" (Some 1) (q 0.5);
  Alcotest.(check (option int))
    "just past the median crosses buckets" (Some 8) (q 0.51);
  Alcotest.(check (option int)) "q=1 reads the max bucket" (Some 8) (q 1.0);
  (match M.histo_summary m M.Candidate_set_size with
  | None -> Alcotest.fail "summary lost the samples"
  | Some s ->
    Alcotest.(check (option int)) "p50 agrees with the summary" (Some s.M.p50)
      (q 0.5);
    Alcotest.(check (option int)) "p90 agrees with the summary" (Some s.M.p90)
      (q 0.9);
    Alcotest.(check (option int)) "p99 agrees with the summary" (Some s.M.p99)
      (q 0.99));
  List.iter
    (fun bad ->
      Alcotest.(check bool) "rejects q outside [0, 1]" true
        (match q bad with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ -0.1; 1.5 ];
  (* bucket floors are clamped to the exact recorded extremes: samples
     70 and 100 share the [64, 128) bucket, whose floor is below both *)
  let m2 = M.create () in
  M.observe m2 M.Matches_per_graph 100;
  Alcotest.(check (option int)) "a single sample reads back exactly"
    (Some 100)
    (M.histogram_quantile m2 M.Matches_per_graph 0.5);
  M.observe m2 M.Matches_per_graph 70;
  Alcotest.(check (option int)) "bucket floor clamped up to the min"
    (Some 70)
    (M.histogram_quantile m2 M.Matches_per_graph 0.0)

let test_drift_rows () =
  let m = M.create () in
  Alcotest.(check int) "no rows before any search" 0 (List.length (M.drift m));
  M.record_drift m ~position:1 ~estimated:10.0 ~actual:40.0;
  M.record_drift m ~position:1 ~estimated:10.0 ~actual:20.0;
  M.record_drift m ~position:3 ~estimated:5.0 ~actual:5.0;
  M.record_drift m ~position:1000 ~estimated:1.0 ~actual:1.0 (* dropped *);
  Alcotest.(check bool) "rows accumulate per position, in order" true
    (M.drift m = [ (1, 2, 20.0, 60.0); (3, 1, 5.0, 5.0) ])

(* --- merge (the Ws.search fan-in) ---------------------------------------- *)

let test_merge () =
  let into = M.create () in
  M.add into M.Search_visited 10;
  M.with_span into "host" (fun () ->
      let dm = M.create () in
      M.add dm M.Search_visited 5;
      M.observe dm M.Matches_per_graph 3;
      M.with_span dm "worker" (fun () -> ());
      M.merge ~into dm);
  Alcotest.(check int) "counters added" 15 (M.get into M.Search_visited);
  Alcotest.(check int) "spans grafted" 2 (M.span_count into);
  (match M.span_forest into with
  | [ host ] ->
    Alcotest.(check (list string)) "worker nests under the open span"
      [ "worker" ]
      (List.map (fun t -> t.M.s_name) host.M.s_children)
  | f -> Alcotest.failf "expected one root, got %d" (List.length f));
  Alcotest.(check bool) "histograms merged" true
    (match M.histo_summary into M.Matches_per_graph with
    | Some s -> s.M.count = 1
    | None -> false);
  (* merging into/from disabled is a no-op, not an error *)
  M.merge ~into:M.disabled (M.create ());
  M.merge ~into (M.disabled)

(* --- JSON ---------------------------------------------------------------- *)

let test_json_shape () =
  let m = M.create () in
  M.incr m M.Search_visited;
  M.with_span m "query" (fun () -> M.with_span m "search" (fun () -> ()));
  let j = M.to_json m in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length j
      && (String.sub j i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "schema tag" true (has "\"schema\":\"gql-obs/v1\"");
  Alcotest.(check bool) "span name" true (has "\"query\"");
  List.iter
    (fun c ->
      Alcotest.(check bool) (M.counter_name c) true
        (has (Printf.sprintf "\"%s\"" (M.counter_name c))))
    M.all_counters

(* --- pipeline integration ------------------------------------------------ *)

let triangle () = Flat_pattern.clique [ "A"; "B"; "C" ]

let test_engine_counters () =
  let g = Test_graph.sample_g () in
  let p = triangle () in
  let m = M.create () in
  let r = Engine.run ~metrics:m p g in
  Alcotest.(check int) "search.visited = outcome.visited"
    r.Engine.outcome.Search.visited
    (M.get m M.Search_visited);
  Alcotest.(check int) "search.matches = n_found"
    r.Engine.outcome.Search.n_found
    (M.get m M.Search_matches);
  let sizes = Feasible.sizes r.Engine.space_initial in
  Alcotest.(check int) "retrieval.candidates = sum of candidate sets"
    (Array.fold_left ( + ) 0 sizes)
    (M.get m M.Retrieval_candidates);
  Alcotest.(check bool) "backtracks between 0 and visited" true
    (let b = M.get m M.Search_backtracks in
     b >= 0 && b <= M.get m M.Search_visited);
  (* one span per phase, nested however the engine ran them *)
  Alcotest.(check int) "4 phase spans" 4 (M.span_count m)

let test_parallel_merge_consistent () =
  let g = Test_graph.sample_g () in
  let p = triangle () in
  let space = Feasible.compute p g in
  let m = M.create () in
  let outcome = Ws.search ~domains:4 ~metrics:m p g space in
  Alcotest.(check int) "merged visited = outcome.visited"
    outcome.Search.visited
    (M.get m M.Search_visited);
  Alcotest.(check int) "merged matches = n_found" outcome.Search.n_found
    (M.get m M.Search_matches)

let test_storage_counters () =
  let path = Filename.temp_file "gql_obs" ".store" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let m = M.create () in
      let store = Gql_storage.Store.create ~pool_capacity:2 path in
      Gql_storage.Store.set_metrics store m;
      List.iter
        (fun _ ->
          ignore (Gql_storage.Store.add_graph store (Test_graph.sample_g ())))
        [ (); (); (); () ];
      Gql_storage.Store.flush store;
      Gql_storage.Store.iter store ~f:(fun _ _ -> ());
      Gql_storage.Store.close store;
      Alcotest.(check bool) "pages written" true (M.get m M.Pages_written > 0);
      Alcotest.(check bool) "pool traffic observed" true
        (M.get m M.Pool_hits + M.get m M.Pool_misses > 0);
      let stats_hits =
        (* the pool's own stats and the metrics view never disagree on
           eviction counts once wired at create time *)
        M.get m M.Pool_evictions
      in
      Alcotest.(check bool) "evictions non-negative" true (stats_hits >= 0))

(* --- property: counters are consistent across random runs ---------------- *)

let gen_run =
  QCheck.Gen.(
    0 -- 1000 >>= fun seed ->
    2 -- 3 >>= fun k ->
    bool >>= fun frequencies ->
    return (seed, k, frequencies))

let arb_run =
  QCheck.make
    ~print:(fun (s, k, f) -> Printf.sprintf "seed=%d k=%d freq=%b" s k f)
    gen_run

let random_graph seed =
  let st = Random.State.make [| seed |] in
  let b = Graph.Builder.create () in
  let labels = [| "A"; "B"; "C" |] in
  let n = 6 + Random.State.int st 6 in
  let nodes =
    Array.init n (fun i ->
        Graph.Builder.add_labeled_node b
          ~name:(Printf.sprintf "n%d" i)
          labels.(Random.State.int st 3))
  in
  for _ = 1 to 2 * n do
    let u = Random.State.int st n and v = Random.State.int st n in
    if u <> v then ignore (Graph.Builder.add_edge b nodes.(u) nodes.(v))
  done;
  Graph.Builder.build b

let prop_counters_consistent =
  QCheck.Test.make
    ~name:"metrics agree with the search outcome on random inputs" ~count:100
    arb_run
    (fun (seed, k, frequencies) ->
      let g = random_graph seed in
      let labels = List.init k (fun i -> [| "A"; "B"; "C" |].(i)) in
      let p = Flat_pattern.path labels in
      let strategy =
        if frequencies then
          {
            Engine.optimized with
            Engine.cost_model = Some (Cost.Frequencies (Cost.stats_of_graph g));
          }
        else Engine.optimized
      in
      let m = M.create () in
      let r = Engine.run ~strategy ~metrics:m p g in
      List.for_all (fun c -> M.get m c >= 0) M.all_counters
      && M.get m M.Search_visited = r.Engine.outcome.Search.visited
      && M.get m M.Search_matches = r.Engine.outcome.Search.n_found
      && M.get m M.Search_backtracks <= M.get m M.Search_visited)

let suite =
  [
    Alcotest.test_case "disabled instance is inert" `Quick test_disabled;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "span nesting and aggregation" `Quick test_span_nesting;
    Alcotest.test_case "spans are exception-safe" `Quick test_span_exception_safe;
    Alcotest.test_case "counting instance counts without spans" `Quick
      test_counting;
    Alcotest.test_case "histogram summaries" `Quick test_histogram;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantile;
    Alcotest.test_case "cardinality drift rows" `Quick test_drift_rows;
    Alcotest.test_case "merge folds domains in" `Quick test_merge;
    Alcotest.test_case "json report shape" `Quick test_json_shape;
    Alcotest.test_case "engine counters match outcome" `Quick test_engine_counters;
    Alcotest.test_case "parallel merge is consistent" `Quick
      test_parallel_merge_consistent;
    Alcotest.test_case "storage counters" `Quick test_storage_counters;
    QCheck_alcotest.to_alcotest prop_counters_consistent;
  ]
