open Gql_graph
open Gql_matcher

let sample_g = Test_graph.sample_g
let triangle_p () = Flat_pattern.clique [ "A"; "B"; "C" ]

let space_sizes space = Array.to_list (Feasible.sizes space)

(* ---- the worked example of §4.2/§4.3 (Figures 4.16-4.18) ---- *)

let test_retrieve_by_attrs () =
  let g = sample_g () in
  let space = Feasible.compute ~retrieval:`Node_attrs (triangle_p ()) g in
  Alcotest.(check (list int)) "{A1,A2}x{B1,B2}x{C1,C2}" [ 2; 2; 2 ] (space_sizes space)

let test_retrieve_by_profiles () =
  let g = sample_g () in
  let space = Feasible.compute ~retrieval:`Profiles (triangle_p ()) g in
  Alcotest.(check (list int)) "{A1}x{B1,B2}x{C2}" [ 1; 2; 1 ] (space_sizes space);
  Alcotest.(check (array int)) "A candidates" [| 0 |] space.Feasible.candidates.(0);
  Alcotest.(check (array int)) "B candidates" [| 1; 3 |] space.Feasible.candidates.(1);
  Alcotest.(check (array int)) "C candidates" [| 4 |] space.Feasible.candidates.(2)

let test_retrieve_by_subgraphs () =
  let g = sample_g () in
  let space = Feasible.compute ~retrieval:`Subgraphs (triangle_p ()) g in
  Alcotest.(check (list int)) "{A1}x{B1}x{C2}" [ 1; 1; 1 ] (space_sizes space)

let test_refinement_figure_4_18 () =
  let g = sample_g () in
  let p = triangle_p () in
  (* start from the attrs-only space, as in Figure 4.18 *)
  let space0 = Feasible.compute ~retrieval:`Node_attrs p g in
  let refined, stats = Refine.refine p g space0 in
  Alcotest.(check (list int)) "output {A1}x{B1}x{C2}" [ 1; 1; 1 ] (space_sizes refined);
  Alcotest.(check (array int)) "A -> A1" [| 0 |] refined.Feasible.candidates.(0);
  Alcotest.(check (array int)) "B -> B1" [| 1 |] refined.Feasible.candidates.(1);
  Alcotest.(check (array int)) "C -> C2" [| 4 |] refined.Feasible.candidates.(2);
  Alcotest.(check bool) "ran at least 2 levels" true (stats.Refine.levels_run >= 2);
  Alcotest.(check bool) "removed 3 pairs" true (stats.Refine.removed = 3)

let test_refine_naive_agrees () =
  let g = sample_g () in
  let p = triangle_p () in
  let space0 = Feasible.compute ~retrieval:`Node_attrs p g in
  let a, _ = Refine.refine p g space0 in
  let b, _ = Refine.refine_naive p g space0 in
  Alcotest.(check (list int)) "same fixpoint" (space_sizes a) (space_sizes b)

let test_search_finds_triangle () =
  let g = sample_g () in
  let p = triangle_p () in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let out = Search.run p g space in
  Alcotest.(check int) "exactly one match" 1 out.Search.n_found;
  match out.Search.mappings with
  | [ phi ] ->
    Alcotest.(check (list int)) "A1,B1,C2" [ 0; 1; 4 ] (Array.to_list phi)
  | _ -> Alcotest.fail "expected one mapping"

let test_search_first_only () =
  let g = sample_g () in
  let p = Flat_pattern.path [ "A"; "B" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let all = Search.run p g space in
  Alcotest.(check int) "two A-B edges" 2 all.Search.n_found;
  let first = Search.run ~exhaustive:false p g space in
  Alcotest.(check int) "first only" 1 first.Search.n_found;
  let limited = Search.run ~limit:1 p g space in
  Alcotest.(check int) "limit 1" 1 limited.Search.n_found;
  Alcotest.(check bool)
    "limit reported as Hit_limit" true
    (limited.Search.stopped = Budget.Hit_limit);
  Alcotest.(check bool)
    "unbounded run is Exhausted" true
    (all.Search.stopped = Budget.Exhausted)

let test_engine_strategies_agree () =
  let g = sample_g () in
  let p = triangle_p () in
  let strategies =
    [
      Engine.baseline;
      Engine.optimized;
      { Engine.optimized with retrieval = `Subgraphs };
      { Engine.baseline with refine = true };
      { Engine.optimized with optimize_order = false };
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "strategy %s finds the triangle" (Engine.strategy_name s))
        1
        (Engine.count_matches ~strategy:s p g))
    strategies

let test_no_match () =
  let g = sample_g () in
  let p = Flat_pattern.clique [ "A"; "A" ] in
  Alcotest.(check int) "no A-A edge" 0 (Engine.count_matches p g)

let test_predicate_pattern () =
  (* pattern with a real predicate rather than labels *)
  let b = Graph.Builder.create () in
  let v1 = Graph.Builder.add_node b ~name:"v1" Tuple.empty in
  let v2 = Graph.Builder.add_node b ~name:"v2" Tuple.empty in
  ignore (Graph.Builder.add_edge b v1 v2);
  let pg = Graph.Builder.build b in
  let p =
    Flat_pattern.of_where pg
      Pred.(
        path [ "v1"; "label" ] = str "A" && path [ "v2"; "label" ] = str "B")
  in
  let g = sample_g () in
  Alcotest.(check int) "two A-B edges" 2 (Engine.count_matches p g)

let test_global_predicate () =
  (* same-label pair connected by an edge: cannot be pushed down *)
  let b = Graph.Builder.create () in
  let v1 = Graph.Builder.add_node b ~name:"v1" Tuple.empty in
  let v2 = Graph.Builder.add_node b ~name:"v2" Tuple.empty in
  ignore (Graph.Builder.add_edge b v1 v2);
  let pg = Graph.Builder.build b in
  let p =
    Flat_pattern.of_where pg
      Pred.(path [ "v1"; "label" ] = path [ "v2"; "label" ])
  in
  let g = sample_g () in
  (* edges between equal labels in sample_g: none; each undirected edge
     yields two mappings when it matches *)
  Alcotest.(check int) "none with equal labels" 0 (Engine.count_matches p g);
  let p_diff =
    Flat_pattern.of_where pg
      Pred.(path [ "v1"; "label" ] <> path [ "v2"; "label" ])
  in
  (* 6 edges, all different-labeled, two orientations each *)
  Alcotest.(check int) "all differ" 12 (Engine.count_matches p_diff g)

let test_edge_predicate () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add_labeled_node b "X" in
  let y = Graph.Builder.add_labeled_node b "Y" in
  ignore
    (Graph.Builder.add_edge b ~tuple:(Tuple.make [ ("w", Value.Int 5) ]) x y);
  ignore
    (Graph.Builder.add_edge b ~tuple:(Tuple.make [ ("w", Value.Int 50) ]) x y);
  let g = Graph.Builder.build b in
  let pb = Graph.Builder.create () in
  let u = Graph.Builder.add_labeled_node pb "X" in
  let v = Graph.Builder.add_labeled_node pb "Y" in
  let e = Graph.Builder.add_edge pb u v in
  let pg = Graph.Builder.build pb in
  let p =
    Flat_pattern.of_graph ~edge_preds:[ (e, Pred.(attr "w" > int 10)) ] pg
  in
  Alcotest.(check int) "only the heavy edge matches" 1 (Engine.count_matches p g)

let test_directed_multigraph_back_edges () =
  (* two parallel X->Y edges of which only one satisfies the edge
     predicate, plus a decoy Y->X edge that does: the candidate check
     must scan the whole parallel-edge run and respect orientation, in
     both the `Out (order [X;Y]) and `In (order [Y;X]) back-edge
     directions *)
  let b = Graph.Builder.create ~directed:true () in
  let x = Graph.Builder.add_labeled_node b "X" in
  let y = Graph.Builder.add_labeled_node b "Y" in
  ignore (Graph.Builder.add_edge b ~tuple:(Tuple.make [ ("w", Value.Int 1) ]) x y);
  ignore (Graph.Builder.add_edge b ~tuple:(Tuple.make [ ("w", Value.Int 2) ]) x y);
  ignore (Graph.Builder.add_edge b ~tuple:(Tuple.make [ ("w", Value.Int 9) ]) y x);
  let g = Graph.Builder.build b in
  let pattern pred =
    let pb = Graph.Builder.create ~directed:true () in
    let u = Graph.Builder.add_labeled_node pb "X" in
    let v = Graph.Builder.add_labeled_node pb "Y" in
    let e = Graph.Builder.add_edge pb u v in
    Flat_pattern.of_graph ~edge_preds:[ (e, pred) ] (Graph.Builder.build pb)
  in
  let check_orders name p expected =
    let space = Feasible.compute ~retrieval:`Node_attrs p g in
    List.iter
      (fun (dir, order) ->
        Alcotest.(check int)
          (Printf.sprintf "%s (%s back edge)" name dir)
          expected
          (Search.run ~order p g space).Search.n_found;
        Alcotest.(check int)
          (Printf.sprintf "%s (%s back edge, reference)" name dir)
          expected
          (Reference.run ~order p g space).Search.n_found)
      [ ("In", [| 0; 1 |]); ("Out", [| 1; 0 |]) ]
  in
  (* only the w=2 parallel edge qualifies: one mapping *)
  check_orders "one of two parallel edges" (pattern Pred.(attr "w" > int 1)) 1;
  (* both parallel edges qualify: still one node mapping *)
  check_orders "both parallel edges" (pattern Pred.(attr "w" > int 0)) 1;
  (* neither X->Y edge qualifies; the w=9 edge runs the other way and
     must not leak through the orientation check *)
  check_orders "orientation respected" (pattern Pred.(attr "w" > int 5)) 0

let test_directed_matching () =
  let g = Graph.of_labeled ~directed:true ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let p_fwd = Graph.of_labeled ~directed:true ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let p_bwd = Graph.of_labeled ~directed:true ~labels:[| "A"; "B" |] [ (1, 0) ] in
  Alcotest.(check int) "forward matches" 1
    (Engine.count_matches (Flat_pattern.of_graph p_fwd) g);
  Alcotest.(check int) "backward does not" 0
    (Engine.count_matches (Flat_pattern.of_graph p_bwd) g)

(* ---- properties against the brute-force oracle ---- *)

let labels_pool = [| "A"; "B"; "C" |]

let gen_labeled_graph ~max_n =
  QCheck.Gen.(
    int_range 1 max_n >>= fun n ->
    list_size (int_range 0 (2 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun raw_edges ->
    array_size (return n) (int_range 0 (Array.length labels_pool - 1))
    >|= fun label_ids ->
    let labels = Array.map (fun i -> labels_pool.(i)) label_ids in
    let edges =
      raw_edges
      |> List.filter (fun (u, v) -> u <> v)
      |> List.map (fun (u, v) -> if u < v then (u, v) else (v, u))
      |> List.sort_uniq compare
    in
    Graph.of_labeled ~labels edges)

let graph_print g = Format.asprintf "%a" Graph.pp g

let oracle_count p g =
  let pattern = p.Flat_pattern.structure in
  let compat u v = Flat_pattern.node_compat p g u v in
  List.length (Iso.find_embeddings ~compat ~pattern ~target:g ())

let prop_engine_matches_oracle strategy name =
  QCheck.Test.make ~name ~count:150
    (QCheck.make
       QCheck.Gen.(pair (gen_labeled_graph ~max_n:7) (gen_labeled_graph ~max_n:4))
       ~print:(fun (g, pg) ->
         Printf.sprintf "target:\n%s\npattern:\n%s" (graph_print g) (graph_print pg)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      Engine.count_matches ~strategy p g = oracle_count p g)

let prop_optimized = prop_engine_matches_oracle Engine.optimized "optimized engine = oracle"
let prop_baseline = prop_engine_matches_oracle Engine.baseline "baseline engine = oracle"

let prop_subgraph_strategy =
  prop_engine_matches_oracle
    { Engine.optimized with retrieval = `Subgraphs }
    "subgraph-retrieval engine = oracle"

let prop_refine_sound =
  QCheck.Test.make ~name:"refinement never prunes a true embedding" ~count:150
    (QCheck.make
       QCheck.Gen.(pair (gen_labeled_graph ~max_n:7) (gen_labeled_graph ~max_n:4)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let compat u v = Flat_pattern.node_compat p g u v in
      let embeddings =
        Iso.find_embeddings ~compat ~pattern:pg ~target:g ()
      in
      let space0 = Feasible.compute ~retrieval:`Node_attrs p g in
      let refined, _ = Refine.refine p g space0 in
      List.for_all
        (fun phi ->
          Array.to_list phi
          |> List.mapi (fun u v -> Feasible.mem refined u v)
          |> List.for_all Fun.id)
        embeddings)

(* the packed-word engine against the historical consed-list one: not
   just the same fixpoint sizes — identical candidate rows *)
let prop_refine_packed_equals_lists =
  QCheck.Test.make ~name:"packed refine = list-based refine, row for row"
    ~count:150
    (QCheck.make
       QCheck.Gen.(pair (gen_labeled_graph ~max_n:7) (gen_labeled_graph ~max_n:4)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let space0 = Feasible.compute ~retrieval:`Node_attrs p g in
      let a, _ = Refine.refine p g space0 in
      let b, _ = Refine.refine_lists p g space0 in
      a.Feasible.candidates = b.Feasible.candidates)

let prop_local_pruning_sound =
  QCheck.Test.make ~name:"profile and subgraph pruning keep all embeddings" ~count:150
    (QCheck.make
       QCheck.Gen.(pair (gen_labeled_graph ~max_n:7) (gen_labeled_graph ~max_n:4)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let compat u v = Flat_pattern.node_compat p g u v in
      let embeddings = Iso.find_embeddings ~compat ~pattern:pg ~target:g () in
      let check retrieval =
        let space = Feasible.compute ~retrieval p g in
        List.for_all
          (fun phi ->
            Array.to_list phi
            |> List.mapi (fun u v -> Feasible.mem space u v)
            |> List.for_all Fun.id)
          embeddings
      in
      check `Profiles && check `Subgraphs)

let prop_profile_weaker_than_subgraph =
  QCheck.Test.make
    ~name:"subgraph pruning is at least as strong as profile pruning" ~count:150
    (QCheck.make
       QCheck.Gen.(pair (gen_labeled_graph ~max_n:7) (gen_labeled_graph ~max_n:4)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let prof = Feasible.compute ~retrieval:`Profiles p g in
      let sub = Feasible.compute ~retrieval:`Subgraphs p g in
      Array.for_all2
        (fun sub_c prof_c ->
          Array.for_all (fun v -> Array.mem v prof_c) sub_c)
        sub.Feasible.candidates prof.Feasible.candidates)

let prop_order_permutation =
  QCheck.Test.make ~name:"greedy order is a permutation" ~count:150
    (QCheck.make QCheck.Gen.(pair (gen_labeled_graph ~max_n:7) (gen_labeled_graph ~max_n:5)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let space = Feasible.compute ~retrieval:`Node_attrs p g in
      let order = Order.greedy p ~sizes:(Feasible.sizes space) in
      List.sort compare (Array.to_list order)
      = List.init (Flat_pattern.size p) (fun i -> i))

let test_greedy_vs_exhaustive_cost () =
  let g = sample_g () in
  let p = triangle_p () in
  let space = Feasible.compute ~retrieval:`Profiles p g in
  let sizes = Feasible.sizes space in
  let model = Cost.Constant Cost.default_constant in
  let greedy_cost = Cost.order_cost model p ~sizes (Order.greedy ~model p ~sizes) in
  let best_cost = Cost.order_cost model p ~sizes (Order.exhaustive ~model p ~sizes) in
  Alcotest.(check bool) "exhaustive no worse than greedy" true (best_cost <= greedy_cost);
  (* §4.4 example: with space {A1} x {B1,B2} x {C2}, joining A with C
     first is better *)
  let cost_abc = Cost.order_cost model p ~sizes [| 0; 1; 2 |] in
  let cost_acb = Cost.order_cost model p ~sizes [| 0; 2; 1 |] in
  Alcotest.(check bool) "(A⋈C)⋈B beats (A⋈B)⋈C" true (cost_acb < cost_abc)

let test_frequency_cost_model () =
  let g = sample_g () in
  let stats = Cost.stats_of_graph g in
  (* P(A-B) = 2 edges / (2*2) = 0.5, P(B-C) = 3/4, P(A-C) = 1/4 *)
  Alcotest.(check (float 1e-9)) "P(A,B)" 0.5
    (Cost.edge_probability stats (Some "A") (Some "B"));
  Alcotest.(check (float 1e-9)) "P(B,C)" 0.75
    (Cost.edge_probability stats (Some "B") (Some "C"));
  Alcotest.(check (float 1e-9)) "P(A,C)" 0.25
    (Cost.edge_probability stats (Some "A") (Some "C"));
  Alcotest.(check (float 1e-9)) "unknown label falls back" Cost.default_constant
    (Cost.edge_probability stats None (Some "B"))

let test_engine_timings_consistent () =
  let g = sample_g () in
  let r = Engine.run (triangle_p ()) g in
  Alcotest.(check bool) "total = sum of phases" true
    (abs_float
       (Engine.total r.Engine.timings
       -. (r.Engine.timings.Engine.t_retrieve +. r.Engine.timings.Engine.t_refine
          +. r.Engine.timings.Engine.t_order +. r.Engine.timings.Engine.t_search))
    < 1e-9);
  Alcotest.(check bool) "refined never larger" true
    (Feasible.log10_size r.Engine.space_refined
    <= Feasible.log10_size r.Engine.space_initial +. 1e-9);
  Alcotest.(check int) "order covers all nodes" 3 (Array.length r.Engine.order)

let test_bitset () =
  let s = Bitset.create 100 in
  Bitset.add s 3;
  Bitset.add s 97;
  Bitset.add s 3;
  Alcotest.(check int) "cardinal dedups" 2 (Bitset.cardinal s);
  Alcotest.(check bool) "mem" true (Bitset.mem s 97);
  Bitset.remove s 3;
  Alcotest.(check bool) "removed" false (Bitset.mem s 3);
  Bitset.remove s 3;
  Alcotest.(check int) "double remove safe" 1 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list ascending" [ 97 ] (Bitset.to_list s)

let prop_exhaustive_order_no_worse =
  QCheck.Test.make ~name:"exhaustive order cost <= greedy order cost" ~count:100
    (QCheck.make
       QCheck.Gen.(pair (gen_labeled_graph ~max_n:8) (gen_labeled_graph ~max_n:5)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let sizes = Feasible.sizes (Feasible.compute ~retrieval:`Node_attrs p g) in
      let model = Cost.Constant Cost.default_constant in
      Cost.order_cost model p ~sizes (Order.exhaustive ~model p ~sizes)
      <= Cost.order_cost model p ~sizes (Order.greedy ~model p ~sizes) +. 1e-9)

let prop_search_respects_candidates =
  QCheck.Test.make ~name:"search maps nodes within their candidate sets" ~count:100
    (QCheck.make
       QCheck.Gen.(pair (gen_labeled_graph ~max_n:8) (gen_labeled_graph ~max_n:3)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let space = Feasible.compute ~retrieval:`Node_attrs p g in
      let out = Search.run p g space in
      List.for_all
        (fun phi ->
          Array.to_list phi
          |> List.mapi (fun u v -> Feasible.mem space u v)
          |> List.for_all Fun.id)
        out.Search.mappings)

(* directed multigraphs: parallel edges and both orientations allowed *)
let gen_directed_multigraph ~max_n =
  QCheck.Gen.(
    int_range 1 max_n >>= fun n ->
    list_size (int_range 0 (2 * n)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun edges ->
    array_size (return n) (int_range 0 (Array.length labels_pool - 1))
    >|= fun label_ids ->
    let labels = Array.map (fun i -> labels_pool.(i)) label_ids in
    Graph.of_labeled ~directed:true ~labels edges)

let same_outcome (a : Search.outcome) (b : Search.outcome) =
  a.Search.n_found = b.Search.n_found && a.Search.mappings = b.Search.mappings

(* the tentpole guard: the array-backed Feasible/Refine/Search pipeline
   returns the same match sets and counts as the retained seed
   list-based implementation *)
let prop_array_pipeline_matches_reference =
  QCheck.Test.make
    ~name:"array-backed pipeline = seed reference matcher" ~count:120
    (QCheck.make
       QCheck.Gen.(pair (gen_labeled_graph ~max_n:8) (gen_labeled_graph ~max_n:4))
       ~print:(fun (g, pg) ->
         Printf.sprintf "target:\n%s\npattern:\n%s" (graph_print g) (graph_print pg)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let space = Feasible.compute ~retrieval:`Profiles p g in
      let refined, _ = Refine.refine p g space in
      let order = Order.greedy p ~sizes:(Feasible.sizes refined) in
      same_outcome (Search.run ~order p g refined) (Reference.run ~order p g refined)
      && same_outcome (Search.run p g space) (Reference.run p g space))

let prop_directed_multigraph_matches_reference =
  QCheck.Test.make
    ~name:"directed multigraph search = seed reference matcher" ~count:120
    (QCheck.make
       QCheck.Gen.(
         pair (gen_directed_multigraph ~max_n:6) (gen_directed_multigraph ~max_n:3))
       ~print:(fun (g, pg) ->
         Printf.sprintf "target:\n%s\npattern:\n%s" (graph_print g) (graph_print pg)))
    (fun (g, pg) ->
      let p = Flat_pattern.of_graph pg in
      let space = Feasible.compute ~retrieval:`Node_attrs p g in
      same_outcome (Search.run p g space) (Reference.run p g space))

let suite =
  [
    Alcotest.test_case "Fig 4.17: retrieval by node attrs" `Quick test_retrieve_by_attrs;
    Alcotest.test_case "Fig 4.17: retrieval by profiles" `Quick test_retrieve_by_profiles;
    Alcotest.test_case "Fig 4.17: retrieval by subgraphs" `Quick test_retrieve_by_subgraphs;
    Alcotest.test_case "Fig 4.18: refinement" `Quick test_refinement_figure_4_18;
    Alcotest.test_case "naive refinement agrees" `Quick test_refine_naive_agrees;
    Alcotest.test_case "search finds the triangle" `Quick test_search_finds_triangle;
    Alcotest.test_case "exhaustive flag and limit" `Quick test_search_first_only;
    Alcotest.test_case "all strategies agree" `Quick test_engine_strategies_agree;
    Alcotest.test_case "unsatisfiable pattern" `Quick test_no_match;
    Alcotest.test_case "predicate-only pattern" `Quick test_predicate_pattern;
    Alcotest.test_case "graph-wide predicate" `Quick test_global_predicate;
    Alcotest.test_case "edge predicates" `Quick test_edge_predicate;
    Alcotest.test_case "directed matching" `Quick test_directed_matching;
    Alcotest.test_case "directed multigraph back edges" `Quick
      test_directed_multigraph_back_edges;
    Alcotest.test_case "greedy vs exhaustive order" `Quick test_greedy_vs_exhaustive_cost;
    Alcotest.test_case "frequency cost model" `Quick test_frequency_cost_model;
    Alcotest.test_case "bitset" `Quick test_bitset;
    Alcotest.test_case "engine result invariants" `Quick test_engine_timings_consistent;
    QCheck_alcotest.to_alcotest prop_optimized;
    QCheck_alcotest.to_alcotest prop_baseline;
    QCheck_alcotest.to_alcotest prop_subgraph_strategy;
    QCheck_alcotest.to_alcotest prop_refine_sound;
    QCheck_alcotest.to_alcotest prop_refine_packed_equals_lists;
    QCheck_alcotest.to_alcotest prop_local_pruning_sound;
    QCheck_alcotest.to_alcotest prop_profile_weaker_than_subgraph;
    QCheck_alcotest.to_alcotest prop_order_permutation;
    QCheck_alcotest.to_alcotest prop_exhaustive_order_no_worse;
    QCheck_alcotest.to_alcotest prop_search_respects_candidates;
    QCheck_alcotest.to_alcotest prop_array_pipeline_matches_reference;
    QCheck_alcotest.to_alcotest prop_directed_multigraph_matches_reference;
  ]
