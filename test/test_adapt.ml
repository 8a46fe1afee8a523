(* Mid-query re-planning: the adaptive driver ([Ws.search ~adapt], at
   one worker and fanned out) must return exactly the static search's
   match set — under exhaustive enumeration, limits, and resource
   stops — while actually re-planning on skewed data. *)

open Gql_graph
open Gql_matcher

let pattern labels edges =
  let b = Graph.Builder.create () in
  let nodes =
    List.mapi
      (fun i l ->
        Graph.Builder.add_labeled_node b ~name:(Printf.sprintf "v%d" i) l)
      labels
    |> Array.of_list
  in
  List.iter
    (fun (u, v) -> ignore (Graph.Builder.add_edge b nodes.(u) nodes.(v)))
    edges;
  Flat_pattern.of_graph (Graph.Builder.build b)

let model = Cost.Constant Cost.default_constant

(* a trigger-happy config so random cases actually exercise re-planning *)
let aggressive = { Adapt.threshold = 1.1; min_samples = 1; max_replans = 3 }

let sorted_set mappings = List.sort compare (List.map Array.to_list mappings)

(* the one-worker adaptive search, with the report it always delivers *)
let adaptive ?(config = aggressive) ?limit ?budget ?metrics ~order p g space =
  let report = ref None in
  let out =
    Ws.search ~domains:1 ?limit ?budget ?metrics ~adapt:config ~model
      ~report:(fun r -> report := Some r)
      ~order p g space
  in
  match !report with
  | Some r -> (out, r)
  | None -> Alcotest.fail "Ws.search did not call ~report"

let space_and_order p g =
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  (space, Order.greedy ~model p ~sizes:(Feasible.sizes space))

(* --- deterministic: the hub workload re-plans and agrees ----------------- *)

let hub_case () =
  let g =
    Gql_datasets.Synthetic.hub
      (Gql_datasets.Rng.create 42)
      ~n_hubs:24 ~n_leaves:96 ~n_mesh:32
  in
  let p = pattern [ "M"; "H"; "L" ] [ (0, 1); (1, 2) ] in
  let space, order = space_and_order p g in
  (p, g, space, order)

let test_hub_replans () =
  let p, g, space, order = hub_case () in
  let static = Search.run ~order p g space in
  let config = { Adapt.default with min_samples = 4 } in
  let out, r = adaptive ~config ~order p g space in
  Alcotest.(check bool) "a re-plan triggered" true (r.Ws.r_replans >= 1);
  Alcotest.(check bool) "the order actually changed" true
    (r.Ws.r_order <> order);
  Alcotest.(check int) "same match count" static.Search.n_found
    out.Search.n_found;
  Alcotest.(check bool) "same match set" true
    (sorted_set static.Search.mappings = sorted_set out.Search.mappings)

let test_hub_replan_counted () =
  let p, g, space, order = hub_case () in
  let metrics = Gql_obs.Metrics.create () in
  let config = { Adapt.default with min_samples = 4 } in
  let _, r = adaptive ~config ~metrics ~order p g space in
  Alcotest.(check int) "planner.replans counts applied re-plans"
    r.Ws.r_replans
    (Gql_obs.Metrics.get metrics Gql_obs.Metrics.Planner_replans)

let test_hub_ws_matches () =
  let p, g, space, order = hub_case () in
  let static = Search.run ~order p g space in
  List.iter
    (fun domains ->
      let report = ref None in
      let out =
        Ws.search ~domains ~order ~adapt:{ aggressive with min_samples = 4 }
          ~model
          ~report:(fun r -> report := Some r)
          p g space
      in
      Alcotest.(check int)
        (Printf.sprintf "same match count at %d domains" domains)
        static.Search.n_found out.Search.n_found;
      Alcotest.(check bool)
        (Printf.sprintf "same match set at %d domains" domains)
        true
        (sorted_set static.Search.mappings = sorted_set out.Search.mappings);
      Alcotest.(check bool)
        (Printf.sprintf "report delivered at %d domains" domains)
        true (!report <> None))
    [ 1; 2; 4 ]

(* --- the engine's adaptive route -------------------------------------- *)

(* [Engine.run] with [adaptive = true] sends the search to [Ws.search]
   at every width; at the default config the bench's hub graph drifts
   far enough to re-plan. *)
let test_engine_adaptive_route () =
  let g =
    Gql_datasets.Synthetic.hub
      (Gql_datasets.Rng.create 2008)
      ~n_hubs:40 ~n_leaves:400 ~n_mesh:400
  in
  let p = pattern [ "M"; "H"; "L" ] [ (0, 1); (1, 2) ] in
  let static = Engine.run p g in
  let static_set = sorted_set static.Engine.outcome.Search.mappings in
  List.iter
    (fun domains ->
      let strategy =
        { Engine.optimized with adaptive = true; search_domains = domains }
      in
      let metrics = Gql_obs.Metrics.create () in
      let r = Engine.run ~strategy ~metrics p g in
      let at fmt = Printf.sprintf (fmt ^^ " at %d domain(s)") domains in
      Alcotest.(check bool) (at "static match set") true
        (sorted_set r.Engine.outcome.Search.mappings = static_set);
      Alcotest.(check bool) (at "re-planned") true (r.Engine.replans > 0);
      Alcotest.(check bool) (at "result.order is the re-planned order") true
        (r.Engine.order <> static.Engine.order
        && r.Engine.order.(0) = static.Engine.order.(0));
      Alcotest.(check int) (at "planner.replans counter") r.Engine.replans
        (Gql_obs.Metrics.get metrics Gql_obs.Metrics.Planner_replans);
      Alcotest.(check bool) (at "drift recorded") true
        (Gql_obs.Metrics.drift metrics <> []))
    [ 1; 3 ]

(* --- properties: random graphs, random patterns -------------------------- *)

let labels_pool = [| "A"; "B"; "C" |]

(* (pattern spec, graph seed, limit candidate) *)
let gen_case =
  QCheck.Gen.(
    2 -- 5 >>= fun k ->
    let pairs =
      List.concat (List.init k (fun i -> List.init i (fun j -> (j, i))))
    in
    list_repeat (List.length pairs) bool >>= fun flags ->
    let edges = List.filteri (fun i _ -> List.nth flags i) pairs in
    list_repeat k (0 -- 2) >>= fun lbls ->
    0 -- 1000 >>= fun seed ->
    1 -- 8 >>= fun limit ->
    return (k, edges, lbls, seed, limit))

let print_case (k, edges, lbls, seed, limit) =
  Printf.sprintf "k=%d edges=[%s] labels=[%s] seed=%d limit=%d" k
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) edges))
    (String.concat ";" (List.map string_of_int lbls))
    seed limit

let arb_case = QCheck.make ~print:print_case gen_case

let data_graph seed =
  let st = Random.State.make [| seed |] in
  let b = Graph.Builder.create () in
  let n = 8 + Random.State.int st 10 in
  let nodes =
    Array.init n (fun i ->
        Graph.Builder.add_labeled_node b
          ~name:(Printf.sprintf "n%d" i)
          labels_pool.(Random.State.int st (Array.length labels_pool)))
  in
  for _ = 1 to 3 * n do
    let u = Random.State.int st n and v = Random.State.int st n in
    if u <> v then ignore (Graph.Builder.add_edge b nodes.(u) nodes.(v))
  done;
  Graph.Builder.build b

let case_env (k, edges, lbls, seed, _limit) =
  let p = pattern (List.map (fun i -> labels_pool.(i)) lbls) edges in
  let g = data_graph seed in
  let space, order = space_and_order p g in
  ignore k;
  (p, g, space, order)

let prop_exhaustive_same_set =
  QCheck.Test.make ~name:"adaptive = static match set (exhaustive)" ~count:200
    arb_case (fun case ->
      let p, g, space, order = case_env case in
      let static = Search.run ~order p g space in
      let out, _ = adaptive ~order p g space in
      sorted_set static.Search.mappings = sorted_set out.Search.mappings
      && out.Search.stopped = Budget.Exhausted)

let prop_limit_within_static_set =
  QCheck.Test.make ~name:"adaptive under a limit finds static matches"
    ~count:200 arb_case (fun ((_, _, _, _, limit) as case) ->
      let p, g, space, order = case_env case in
      let static = Search.run ~order p g space in
      let full = sorted_set static.Search.mappings in
      let out, _ = adaptive ~limit ~order p g space in
      out.Search.n_found = min limit static.Search.n_found
      && List.for_all
           (fun m -> List.mem (Array.to_list m) full)
           out.Search.mappings)

let prop_cancellation_respected =
  QCheck.Test.make ~name:"adaptive respects a cancelled budget" ~count:50
    arb_case (fun case ->
      let p, g, space, order = case_env case in
      let token = Budget.token () in
      Budget.cancel token;
      let budget = Budget.with_token (Budget.make ()) token in
      let out, _ = adaptive ~budget ~order p g space in
      out.Search.stopped = Budget.Cancelled)

let prop_ws_adaptive_same_set =
  QCheck.Test.make ~name:"work-stealing adaptive = static match set" ~count:60
    arb_case (fun case ->
      let p, g, space, order = case_env case in
      let static = Search.run ~order p g space in
      let out = Ws.search ~domains:3 ~order ~adapt:aggressive ~model p g space in
      sorted_set static.Search.mappings = sorted_set out.Search.mappings)

(* --- the divergence trigger in isolation --------------------------------- *)

let test_diverged () =
  let cfg = { Adapt.threshold = 4.0; min_samples = 8; max_replans = 2 } in
  (* estimates say fan-out 2 per position; observations agree *)
  Alcotest.(check bool) "no divergence when observations track" false
    (Adapt.diverged cfg [| 10.0; 20.0; 40.0 |] [| 10; 20; 40 |]);
  (* observed fan-out 16 vs estimated 2 at position 1: ratio 8 *)
  Alcotest.(check bool) "divergence above threshold" true
    (Adapt.diverged cfg [| 10.0; 20.0; 40.0 |] [| 10; 160; 320 |]);
  (* same drift but under min_samples: not trusted *)
  Alcotest.(check bool) "thin samples are not trusted" false
    (Adapt.diverged cfg [| 1.0; 2.0 |] [| 1; 16 |]);
  (* the other direction: estimated 2, observed 1/8 *)
  Alcotest.(check bool) "overestimates diverge too" true
    (Adapt.diverged cfg [| 16.0; 256.0 |] [| 16; 2 |])

let suite =
  [
    Alcotest.test_case "hub workload re-plans to the same answer" `Quick
      test_hub_replans;
    Alcotest.test_case "planner.replans counter" `Quick test_hub_replan_counted;
    Alcotest.test_case "hub workload on the work-stealing engine" `Quick
      test_hub_ws_matches;
    Alcotest.test_case "divergence trigger" `Quick test_diverged;
    Alcotest.test_case "engine adaptive route re-plans at 1 and 3 domains"
      `Quick test_engine_adaptive_route;
    QCheck_alcotest.to_alcotest prop_exhaustive_same_set;
    QCheck_alcotest.to_alcotest prop_limit_within_static_set;
    QCheck_alcotest.to_alcotest prop_cancellation_respected;
    QCheck_alcotest.to_alcotest prop_ws_adaptive_same_set;
  ]
