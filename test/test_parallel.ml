open Gql_graph
open Gql_matcher
open Gql_datasets

(* CI runs the suite twice: once at the default and once with
   GQL_TEST_DOMAINS=4, so the work-stealing paths are exercised at more
   than one pool width without duplicating the test list. *)
let env_domains =
  match Sys.getenv_opt "GQL_TEST_DOMAINS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 3)
  | None -> 3

(* mapping order differs between engines by design: compare as sets *)
let mapping_set (out : Search.outcome) =
  List.sort compare (List.map Array.to_list out.Search.mappings)

let test_parallel_equals_sequential () =
  let g = Synthetic.erdos_renyi (Rng.create 21) ~n:500 ~m:2500 ~n_labels:8 in
  let idx = Gql_index.Label_index.build g in
  let labels = Gql_index.Label_index.top_frequent idx 4 in
  let rng = Rng.create 22 in
  for size = 2 to 4 do
    let p = Queries.clique rng ~labels ~size in
    let seq = Engine.count_matches p g in
    List.iter
      (fun domains ->
        Alcotest.(check int)
          (Printf.sprintf "size %d, %d domains" size domains)
          seq
          (Engine.count_matches
             ~strategy:{ Engine.optimized with search_domains = domains }
             p g))
      [ 1; 2; 4 ]
  done

(* A fanned-out static search is observed like a sequential one: the
   same drift rows — positions, estimates and summed actual descents —
   at every width. *)
let test_fanned_out_drift () =
  let g = Synthetic.erdos_renyi (Rng.create 21) ~n:500 ~m:2500 ~n_labels:8 in
  let idx = Gql_index.Label_index.build g in
  let labels = Gql_index.Label_index.top_frequent idx 4 in
  let p = Queries.clique (Rng.create 23) ~labels ~size:3 in
  let run domains =
    let metrics = Gql_obs.Metrics.create () in
    let r =
      Engine.run
        ~strategy:{ Engine.optimized with search_domains = domains }
        ~metrics p g
    in
    (r.Engine.outcome.Search.n_found, Gql_obs.Metrics.drift metrics)
  in
  let n1, rows1 = run 1 in
  Alcotest.(check bool) "the sequential run records drift" true (rows1 <> []);
  List.iter
    (fun domains ->
      let n, rows = run domains in
      let at what = Printf.sprintf "%s at %d domains" what domains in
      Alcotest.(check int) (at "same matches") n1 n;
      Alcotest.(check (list (pair int (pair int (pair (float 0.0) (float 0.0))))))
        (at "same drift rows")
        (List.map (fun (i, runs, e, a) -> (i, (runs, (e, a)))) rows1)
        (List.map (fun (i, runs, e, a) -> (i, (runs, (e, a)))) rows))
    [ 2; 3 ]

let test_parallel_search_partition () =
  let g = Test_graph.sample_g () in
  let p = Flat_pattern.clique [ "A"; "B"; "C" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let out = Ws.search ~domains:3 p g space in
  Alcotest.(check int) "one triangle found in parallel" 1 out.Search.n_found;
  Alcotest.(check bool)
    "exhausted" true
    (out.Search.stopped = Budget.Exhausted)

let test_empty_space () =
  let g = Test_graph.sample_g () in
  let p = Flat_pattern.clique [ "Z"; "Z" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let out = Ws.search ~domains:4 p g space in
  Alcotest.(check int) "no matches" 0 out.Search.n_found

(* --- work-stealing engine ----------------------------------------------- *)

let test_ws_pre_cancelled () =
  let g = Test_graph.sample_g () in
  let p = Flat_pattern.clique [ "A"; "B"; "C" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let tok = Budget.token () in
  Budget.cancel tok;
  let budget = Budget.make ~cancel:tok () in
  let out = Ws.search ~domains:env_domains ~budget p g space in
  Alcotest.(check int) "nothing found" 0 out.Search.n_found;
  Alcotest.(check bool)
    "stopped by cancellation" true
    (out.Search.stopped = Budget.Cancelled)

let test_ws_expired_deadline () =
  let g = Test_graph.sample_g () in
  let p = Flat_pattern.clique [ "A"; "B"; "C" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let budget = Budget.make ~deadline_at:(Unix.gettimeofday () -. 5.0) () in
  let out = Ws.search ~domains:env_domains ~budget p g space in
  Alcotest.(check int) "nothing found" 0 out.Search.n_found;
  Alcotest.(check bool)
    "stopped by deadline" true
    (out.Search.stopped = Budget.Deadline)

(* A skewed Φ(u₁): one hub carries every match, the other first-level
   candidates are dead ends — the shape static slicing handles worst.
   The equality check is the point; the spawned-task counter proves the
   work-stealing path (subtree exposure) actually ran. *)
let hub_graph () =
  let b = Graph.Builder.create () in
  let hs =
    Array.init 8 (fun i ->
        Graph.Builder.add_labeled_node b ~name:(Printf.sprintf "H%d" i) "H")
  in
  let bs =
    Array.init 20 (fun i ->
        Graph.Builder.add_labeled_node b ~name:(Printf.sprintf "B%d" i) "B")
  in
  Array.iter (fun v -> ignore (Graph.Builder.add_edge b hs.(0) v)) bs;
  for i = 0 to Array.length bs - 1 do
    for j = i + 1 to Array.length bs - 1 do
      ignore (Graph.Builder.add_edge b bs.(i) bs.(j))
    done
  done;
  Graph.Builder.build b

let test_ws_skewed_spawns_tasks () =
  let module M = Gql_obs.Metrics in
  let g = hub_graph () in
  let p = Flat_pattern.clique [ "H"; "B"; "B" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let seq = Search.run p g space in
  let metrics = M.create () in
  let out = Ws.search ~domains:(max 2 env_domains) ~metrics p g space in
  Alcotest.(check int)
    "same count on the skewed hub graph" seq.Search.n_found out.Search.n_found;
  Alcotest.(check bool)
    "subtree tasks were exposed" true
    (M.get metrics M.Parallel_tasks_spawned > 0)

(* An exhaustive 2-node edge query: its second position is the leaf
   level, where each candidate is one Check call. Tasks are split off
   above it only, so a fanned-out search spawns a task per root at
   most, not one per visited candidate. *)
let test_leaf_level_not_exposed () =
  let module M = Gql_obs.Metrics in
  let g = Synthetic.erdos_renyi (Rng.create 21) ~n:500 ~m:2500 ~n_labels:8 in
  let p =
    Gql_core.Gql.pattern_of_string "graph P { node a; node b; edge e (a, b); }"
  in
  let run domains =
    let metrics = M.create () in
    let r =
      Engine.run
        ~strategy:{ Engine.optimized with search_domains = domains }
        ~metrics p g
    in
    (mapping_set r.Engine.outcome, metrics)
  in
  let one, _ = run 1 in
  let two, metrics = run 2 in
  Alcotest.(check bool) "same matches at 2 domains" true (one = two);
  Alcotest.(check int) "every edge, both ways" (2 * Graph.n_edges g)
    (List.length two);
  let tasks = M.get metrics M.Parallel_tasks_spawned in
  let visited = M.get metrics M.Search_visited in
  if tasks > visited / 10 then
    Alcotest.failf "%d tasks spawned for %d visited candidates" tasks visited

(* --- the helper pool ------------------------------------------------- *)

let er_clique seed =
  let g = Synthetic.erdos_renyi (Rng.create 31) ~n:300 ~m:1500 ~n_labels:6 in
  let idx = Gql_index.Label_index.build g in
  let labels = Gql_index.Label_index.top_frequent idx 3 in
  let p = Queries.clique (Rng.create seed) ~labels ~size:3 in
  (g, p, Feasible.compute ~retrieval:`Node_attrs p g)

(* Consecutive fan-outs reuse the parked helpers: the pool grows to at
   most [domains - 1] (or stays at the width an earlier test left), and
   not at all after the first search. *)
let test_pool_reuses_helpers () =
  let g, p, space = er_clique 32 in
  let seq = mapping_set (Search.run p g space) in
  let before = Pool.helpers () in
  ignore (Ws.search ~domains:3 p g space);
  let warm = Pool.helpers () in
  for i = 1 to 500 do
    let out = Ws.search ~domains:3 p g space in
    if mapping_set out <> seq then
      Alcotest.failf "search %d: mapping set differs from Search.run" i
  done;
  let after = Pool.helpers () in
  Alcotest.(check int) "no helper started after the first search" warm after;
  Alcotest.(check bool)
    (Printf.sprintf "%d helper(s) <= max 2 %d" after before)
    true
    (after <= max 2 before)

(* Root candidates beyond the graph make a worker raise (the bounds-
   checked used set); the caller gets the exception, and the next search
   runs on the same helpers. *)
let test_pool_worker_raises () =
  let g = Test_graph.sample_g () in
  let p = Flat_pattern.clique [ "A"; "B" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let bad =
    {
      Feasible.candidates =
        Array.mapi
          (fun u c -> if u = 0 then Array.init 6 (fun i -> 1000 + i) else c)
          space.Feasible.candidates;
    }
  in
  let domains = max 2 env_domains in
  ignore (Ws.search ~domains p g space);
  let helpers = Pool.helpers () in
  (match Ws.search ~domains ~order:[| 0; 1 |] p g bad with
  | _ -> Alcotest.fail "a malformed space must raise"
  | exception Invalid_argument _ -> ());
  let out = Ws.search ~domains p g space in
  Alcotest.(check (list (list int)))
    "the next search is correct"
    (mapping_set (Search.run p g space))
    (mapping_set out);
  Alcotest.(check int) "and starts no helper" helpers (Pool.helpers ())

(* Two domains fanning out at once share the pool; each gets its own
   answers. *)
let test_pool_concurrent_callers () =
  let caller seed () =
    let g, p, space = er_clique seed in
    let seq = mapping_set (Search.run p g space) in
    List.init 40 (fun _ ->
        mapping_set (Ws.search ~domains:env_domains p g space) = seq)
    |> List.for_all Fun.id
  in
  let a = Domain.spawn (caller 41) and b = Domain.spawn (caller 42) in
  let ok_a = Domain.join a and ok_b = Domain.join b in
  Alcotest.(check bool) "first caller's answers" true ok_a;
  Alcotest.(check bool) "second caller's answers" true ok_b

let prop_ws_mapping_set =
  QCheck.Test.make
    ~name:"work-stealing search = sequential mapping set on random inputs"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         pair (Test_matcher.gen_labeled_graph ~max_n:8)
           (Test_matcher.gen_labeled_graph ~max_n:3)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let space = Feasible.compute ~retrieval:`Node_attrs p g in
      let seq = Search.run p g space in
      let par = Ws.search ~domains:env_domains p g space in
      mapping_set seq = mapping_set par)

let prop_ws_limit_exact =
  QCheck.Test.make
    ~name:"work-stealing ~limit: exact global cap, subset of sequential set"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         triple
           (Test_matcher.gen_labeled_graph ~max_n:8)
           (Test_matcher.gen_labeled_graph ~max_n:3)
           (int_range 1 5)))
    (fun (g, pg, l) ->
      let p = Flat_pattern.of_graph pg in
      let space = Feasible.compute ~retrieval:`Node_attrs p g in
      let seq = Search.run p g space in
      let par = Ws.search ~domains:env_domains ~limit:l p g space in
      let seq_set = mapping_set seq in
      par.Search.n_found = min l seq.Search.n_found
      && List.for_all (fun m -> List.mem m seq_set) (mapping_set par)
      && par.Search.stopped
         = (if seq.Search.n_found >= l then Budget.Hit_limit
            else Budget.Exhausted))

let prop_parallel_matches_oracle =
  QCheck.Test.make ~name:"parallel search = sequential on random inputs" ~count:60
    (QCheck.make
       QCheck.Gen.(
         pair (Test_matcher.gen_labeled_graph ~max_n:8)
           (Test_matcher.gen_labeled_graph ~max_n:3)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let space = Feasible.compute ~retrieval:`Node_attrs p g in
      let seq = (Search.run p g space).Search.n_found in
      let par = (Ws.search ~domains:3 p g space).Search.n_found in
      seq = par)

let suite =
  [
    Alcotest.test_case "parallel = sequential counts" `Quick
      test_parallel_equals_sequential;
    Alcotest.test_case "fanned-out static search records the same drift"
      `Quick test_fanned_out_drift;
    Alcotest.test_case "partitioned search" `Quick test_parallel_search_partition;
    Alcotest.test_case "empty candidate space" `Quick test_empty_space;
    Alcotest.test_case "pre-cancelled token stops before work" `Quick
      test_ws_pre_cancelled;
    Alcotest.test_case "expired deadline stops before work" `Quick
      test_ws_expired_deadline;
    Alcotest.test_case "the leaf level is never exposed as tasks" `Quick
      test_leaf_level_not_exposed;
    Alcotest.test_case "skewed hub graph exposes subtree tasks" `Quick
      test_ws_skewed_spawns_tasks;
    Alcotest.test_case "consecutive searches reuse the pool's helpers" `Quick
      test_pool_reuses_helpers;
    Alcotest.test_case "a raising worker re-raises; the pool survives" `Quick
      test_pool_worker_raises;
    Alcotest.test_case "two domains fan out at once" `Quick
      test_pool_concurrent_callers;
    QCheck_alcotest.to_alcotest prop_ws_mapping_set;
    QCheck_alcotest.to_alcotest prop_ws_limit_exact;
    QCheck_alcotest.to_alcotest prop_parallel_matches_oracle;
  ]
