(* Resource governance: deadlines, step budgets, cancellation.

   The acceptance bar: a deadline-stopped search returns a prefix of
   the sequential mapping stream, within 2x the deadline, with the
   structured reason — in both [Search.run] and [Parallel.search]. *)

open Gql_graph
open Gql_matcher

(* A combinatorial bomb: a same-label complete graph K_n makes a
   7-node path pattern enumerate ~n^7 embeddings — unbounded search
   would run for hours, so any return at all proves governance. *)
let bomb_graph n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Graph.of_labeled ~labels:(Array.make n "A") !edges

let bomb_pattern () = Flat_pattern.path [ "A"; "A"; "A"; "A"; "A"; "A"; "A" ]

let bomb_space p g = Feasible.compute ~retrieval:`Node_attrs p g

let test_reason_algebra () =
  Alcotest.(check bool) "worst picks severer" true
    (Budget.worst Budget.Hit_limit Budget.Deadline = Budget.Deadline);
  Alcotest.(check bool) "worst is commutative here" true
    (Budget.worst Budget.Deadline Budget.Hit_limit = Budget.Deadline);
  Alcotest.(check bool) "exhausted is neutral" true
    (Budget.worst Budget.Exhausted Budget.Step_budget = Budget.Step_budget);
  Alcotest.(check bool) "cancelled tops" true
    (Budget.worst Budget.Cancelled Budget.Deadline = Budget.Cancelled);
  Alcotest.(check bool) "deadline is final" true (Budget.final Budget.Deadline);
  Alcotest.(check bool) "cancelled is final" true (Budget.final Budget.Cancelled);
  Alcotest.(check bool) "step budget is per-run" false
    (Budget.final Budget.Step_budget);
  Alcotest.(check bool) "hit limit is not a resource stop" false
    (Budget.final Budget.Hit_limit)

let test_make_validation () =
  Alcotest.(check bool) "negative deadline rejected" true
    (match Budget.make ~deadline:(-1.0) () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "zero max_visited rejected" true
    (match Budget.make ~max_visited:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "unlimited is unlimited" true
    (Budget.is_unlimited Budget.unlimited);
  Alcotest.(check bool) "a deadline is not unlimited" false
    (Budget.is_unlimited (Budget.make ~deadline:10.0 ()))

let test_precancelled_token () =
  let g = Test_graph.sample_g () in
  let p = Flat_pattern.path [ "A"; "B" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let tok = Budget.token () in
  Budget.cancel tok;
  let out = Search.run ~budget:(Budget.make ~cancel:tok ()) p g space in
  Alcotest.(check int) "no work done" 0 out.Search.visited;
  Alcotest.(check int) "no mappings" 0 out.Search.n_found;
  Alcotest.(check bool) "reason is Cancelled" true
    (out.Search.stopped = Budget.Cancelled)

let test_step_budget_prefix () =
  let g = Test_graph.sample_g () in
  let p = Flat_pattern.clique [ "A"; "B"; "C" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let full = Search.run p g space in
  Alcotest.(check bool) "reference run completes" true
    (full.Search.stopped = Budget.Exhausted);
  let prev_visited = ref 0 in
  for m = 1 to full.Search.visited + 2 do
    let out = Search.run ~budget:(Budget.make ~max_visited:m ()) p g space in
    Alcotest.(check bool)
      (Printf.sprintf "visited within budget (m=%d)" m)
      true
      (out.Search.visited <= m + 1);
    Alcotest.(check bool)
      (Printf.sprintf "visited monotone (m=%d)" m)
      true
      (out.Search.visited >= !prev_visited);
    prev_visited := out.Search.visited;
    let is_prefix =
      let rec go xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> x = y && go xs' ys'
        | _ :: _, [] -> false
      in
      go out.Search.mappings full.Search.mappings
    in
    Alcotest.(check bool)
      (Printf.sprintf "mappings form a prefix (m=%d)" m)
      true is_prefix;
    if out.Search.visited > m then
      Alcotest.(check bool)
        (Printf.sprintf "overrun reported as Step_budget (m=%d)" m)
        true
        (out.Search.stopped = Budget.Step_budget)
  done

let prop_budget_prefix =
  QCheck.Test.make ~name:"budgeted search returns a prefix" ~count:80
    (QCheck.make
       QCheck.Gen.(
         triple
           (Test_matcher.gen_labeled_graph ~max_n:9)
           (Test_matcher.gen_labeled_graph ~max_n:3)
           (int_range 1 40)))
    (fun (g, pg, m) ->
      let p = Flat_pattern.of_graph pg in
      let space = Feasible.compute ~retrieval:`Node_attrs p g in
      let full = Search.run p g space in
      let out = Search.run ~budget:(Budget.make ~max_visited:m ()) p g space in
      let rec prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> x = y && prefix xs' ys'
        | _ :: _, [] -> false
      in
      prefix out.Search.mappings full.Search.mappings
      && out.Search.visited <= m + 1)

let test_deadline_sequential () =
  let g = bomb_graph 48 in
  let p = bomb_pattern () in
  let space = bomb_space p g in
  let deadline = 0.1 in
  let t0 = Unix.gettimeofday () in
  let out = Search.run ~budget:(Budget.make ~deadline ()) p g space in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "stopped by the deadline" true
    (out.Search.stopped = Budget.Deadline);
  Alcotest.(check bool) "partial mappings delivered" true (out.Search.n_found > 0);
  Alcotest.(check bool)
    (Printf.sprintf "returned within 2x deadline (%.3fs)" elapsed)
    true
    (elapsed < 2.0 *. deadline)

let test_deadline_parallel () =
  let g = bomb_graph 48 in
  let p = bomb_pattern () in
  let space = bomb_space p g in
  let deadline = 0.1 in
  let t0 = Unix.gettimeofday () in
  let out =
    Parallel.search ~domains:4 ~budget:(Budget.make ~deadline ()) p g space
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "stopped by the deadline" true
    (out.Search.stopped = Budget.Deadline);
  Alcotest.(check bool) "partial mappings delivered" true (out.Search.n_found > 0);
  (* fixed slack on top of the 2x bound: domain spawn/join overhead is
     real wall-clock but not search time, and it dominates under a
     loaded test runner *)
  Alcotest.(check bool)
    (Printf.sprintf "all domains landed within 2x deadline (%.3fs)" elapsed)
    true
    (elapsed < (2.0 *. deadline) +. 0.25)

let test_cancellation_parallel () =
  (* cancel from the outside mid-flight: the search lands promptly with
     reason Cancelled *)
  let g = bomb_graph 40 in
  let p = bomb_pattern () in
  let space = bomb_space p g in
  let tok = Budget.token () in
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Budget.cancel tok)
  in
  let t0 = Unix.gettimeofday () in
  let out =
    Parallel.search ~domains:4 ~budget:(Budget.make ~cancel:tok ()) p g space
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Domain.join canceller;
  Alcotest.(check bool) "reason is Cancelled" true
    (out.Search.stopped = Budget.Cancelled);
  Alcotest.(check bool)
    (Printf.sprintf "landed promptly (%.3fs)" elapsed)
    true (elapsed < 1.0)

let test_parallel_global_limit_exact () =
  let g = bomb_graph 24 in
  let p = Flat_pattern.path [ "A"; "A"; "A" ] in
  let space = bomb_space p g in
  let total = (Reference.run p g space).Search.n_found in
  Alcotest.(check bool) "workload has plenty of matches" true (total > 100);
  List.iter
    (fun limit ->
      let out = Parallel.search ~domains:4 ~limit p g space in
      Alcotest.(check int)
        (Printf.sprintf "exactly %d mappings" limit)
        (min limit total) out.Search.n_found;
      Alcotest.(check int)
        (Printf.sprintf "mappings list agrees (limit %d)" limit)
        (min limit total)
        (List.length out.Search.mappings);
      Alcotest.(check bool)
        (Printf.sprintf "reason is Hit_limit (limit %d)" limit)
        true
        (out.Search.stopped = Budget.Hit_limit))
    [ 1; 17; 100 ]

let test_parallel_unbounded_matches_reference () =
  let g = Test_graph.sample_g () in
  List.iter
    (fun pg ->
      let space = Feasible.compute ~retrieval:`Node_attrs pg g in
      let oracle = (Reference.run pg g space).Search.n_found in
      let par = (Parallel.search ~domains:3 pg g space).Search.n_found in
      Alcotest.(check int) "parallel = oracle" oracle par)
    [
      Flat_pattern.path [ "A"; "B" ];
      Flat_pattern.clique [ "A"; "B"; "C" ];
      Flat_pattern.path [ "B"; "C"; "B" ];
    ]

let test_parallel_exception_propagates () =
  (* a candidate id beyond the data graph makes every domain blow up in
     its first Check call; the exception must come back to the caller
     (after all domains are joined) instead of killing a domain
     silently *)
  let g = Test_graph.sample_g () in
  let p = Flat_pattern.path [ "A"; "B" ] in
  let space = Feasible.compute ~retrieval:`Node_attrs p g in
  let poisoned =
    {
      Feasible.candidates =
        Array.map
          (fun c -> Array.append c [| Graph.n_nodes g + 1000 |])
          space.Feasible.candidates;
    }
  in
  Alcotest.(check bool) "worker exception reaches the caller" true
    (match Parallel.search ~domains:3 p g poisoned with
    | exception _ -> true
    | _ -> false);
  (* the domain pool is still usable afterwards *)
  let out = Parallel.search ~domains:3 p g space in
  Alcotest.(check bool) "subsequent searches still work" true
    (out.Search.stopped = Budget.Exhausted)

let test_engine_phase_attribution () =
  let g = bomb_graph 32 in
  let p = bomb_pattern () in
  (* an already-expired deadline stops before any real work *)
  let expired = Budget.make ~deadline_at:(Unix.gettimeofday () -. 1.0) () in
  let r = Engine.run ~budget:expired p g in
  Alcotest.(check bool) "attributed to a pre-search phase" true
    (match r.Engine.stopped_in with
    | Some (Engine.Retrieve | Engine.Refine | Engine.Order) -> true
    | _ -> false);
  Alcotest.(check int) "no mappings" 0 r.Engine.outcome.Search.n_found;
  (* a live deadline survives the cheap phases and dies in the search *)
  let r = Engine.run ~budget:(Budget.make ~deadline:0.1 ()) p g in
  Alcotest.(check bool) "attributed to the search phase" true
    (r.Engine.stopped_in = Some Engine.Search);
  Alcotest.(check bool) "reason is Deadline" true
    (r.Engine.outcome.Search.stopped = Budget.Deadline);
  (* a clean run attributes nothing *)
  let r = Engine.run ~limit:5 p g in
  Alcotest.(check bool) "no attribution on a limit stop" true
    (r.Engine.stopped_in = None)

let test_eval_budget () =
  let query =
    {|D := graph { node a <label="A">; node b <label="A">; node c <label="A">;
                   edge e1 (a, b); edge e2 (b, c); edge e3 (a, c); };
      for graph P { node v1 where label="A"; node v2 where label="A";
                    edge e (v1, v2); } exhaustive in doc("D")
      return graph { node out; }|}
  in
  let ok = Gql_core.Gql.run_query query in
  Alcotest.(check bool) "unbudgeted run is exhausted" true
    (ok.Gql_core.Eval.stopped = Budget.Exhausted);
  let expired = Budget.make ~deadline_at:(Unix.gettimeofday () -. 1.0) () in
  let r = Gql_core.Gql.run_query ~budget:expired query in
  Alcotest.(check bool) "expired budget reported in the result" true
    (Budget.final r.Gql_core.Eval.stopped)

(* Enumerating derivations polls the budget: a pattern over the
   derivation cap, under an already-cancelled token, stops with the
   token's reason instead of raising the cap error. *)
let test_eval_cancelled_enumeration () =
  let tok = Budget.token () in
  Budget.cancel tok;
  let query =
    Test_eval.alternatives 13
    ^ {|; for P exhaustive in doc("D") return graph { node out; };|}
  in
  let r =
    Gql_core.Gql.run_query
      ~docs:[ ("D", [ Test_graph.sample_g () ]) ]
      ~budget:(Budget.make ~cancel:tok ())
      query
  in
  Alcotest.(check bool) "reason is Cancelled" true
    (r.Gql_core.Eval.stopped = Budget.Cancelled);
  Alcotest.(check int) "nothing returned" 0
    (List.length (Gql_core.Eval.returned r))

let suite =
  [
    Alcotest.test_case "stop-reason algebra" `Quick test_reason_algebra;
    Alcotest.test_case "budget validation" `Quick test_make_validation;
    Alcotest.test_case "pre-cancelled token does no work" `Quick
      test_precancelled_token;
    Alcotest.test_case "step budget: prefix + monotone visited" `Quick
      test_step_budget_prefix;
    QCheck_alcotest.to_alcotest prop_budget_prefix;
    Alcotest.test_case "deadline: sequential search" `Quick
      test_deadline_sequential;
    Alcotest.test_case "deadline: parallel search" `Quick test_deadline_parallel;
    Alcotest.test_case "cross-domain cancellation" `Quick
      test_cancellation_parallel;
    Alcotest.test_case "parallel global limit is exact" `Quick
      test_parallel_global_limit_exact;
    Alcotest.test_case "parallel = reference when unbounded" `Quick
      test_parallel_unbounded_matches_reference;
    Alcotest.test_case "worker exception propagates" `Quick
      test_parallel_exception_propagates;
    Alcotest.test_case "engine phase attribution" `Quick
      test_engine_phase_attribution;
    Alcotest.test_case "eval-level budget" `Quick test_eval_budget;
    Alcotest.test_case "derivation enumeration polls the budget" `Quick
      test_eval_cancelled_enumeration;
  ]
