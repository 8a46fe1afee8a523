(* Learned planner statistics: EWMA semantics, log2 degree bucketing,
   size estimates and snapshot independence. *)

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

(* --- EWMA + buckets ------------------------------------------------------ *)

let test_ewma_decay () =
  let s = Stats.create ~decay:0.25 () in
  Stats.observe_selectivity s ~label:(Some "A") ~degree:2 0.8;
  Alcotest.(check (option (float 1e-9)))
    "first observation initializes" (Some 0.8)
    (Stats.selectivity s ~label:(Some "A") ~degree:2);
  Stats.observe_selectivity s ~label:(Some "A") ~degree:2 0.0;
  (* 0.75 * 0.8 + 0.25 * 0.0 *)
  Alcotest.(check (option (float 1e-9)))
    "decayed toward the new sample" (Some 0.6)
    (Stats.selectivity s ~label:(Some "A") ~degree:2)

let test_bucket_sharing () =
  let s = Stats.create () in
  Stats.observe_selectivity s ~label:(Some "A") ~degree:2 0.5;
  Alcotest.(check bool) "degree 3 shares the [2,4) bucket" true
    (Stats.selectivity s ~label:(Some "A") ~degree:3 <> None);
  Alcotest.(check bool) "degree 4 is a different bucket" true
    (Stats.selectivity s ~label:(Some "A") ~degree:4 = None);
  Alcotest.(check bool) "a different label is a different key" true
    (Stats.selectivity s ~label:(Some "B") ~degree:2 = None);
  Alcotest.(check bool) "unlabeled is its own key" true
    (Stats.selectivity s ~label:None ~degree:2 = None)

let test_gamma_unordered () =
  let s = Stats.create () in
  Stats.observe_gamma s (Some "A") (Some "B") 0.125;
  Alcotest.(check (option (float 1e-9)))
    "reversed pair reads the same entry" (Some 0.125)
    (Stats.gamma s (Some "B") (Some "A"));
  Stats.observe_gamma s (Some "C") None 0.0;
  (match Stats.gamma s None (Some "C") with
  | Some g -> Alcotest.(check bool) "gamma clamped above zero" true (g > 0.0)
  | None -> Alcotest.fail "clamped observation lost")

let test_observe_run_and_epoch () =
  let s = Stats.create ~epoch_every:2 () in
  let p = pattern [ "A"; "B" ] [ (0, 1) ] in
  let feed () =
    Stats.observe_run s ~p ~n_nodes:10 ~sizes:[| 4; 6 |] ~order:[| 0; 1 |]
      ~fanouts:[| Float.nan; 3.0 |]
  in
  feed ();
  Alcotest.(check int) "one run, no epoch yet" 0 (Stats.epoch s);
  feed ();
  Alcotest.(check int) "epoch bumps every epoch_every runs" 1 (Stats.epoch s);
  Alcotest.(check int) "observations counted" 2 (Stats.observations s);
  Alcotest.(check (option (float 1e-9)))
    "selectivity learned from sizes" (Some 0.4)
    (Stats.selectivity s ~label:(Some "A") ~degree:1);
  (* fan-out 3.0 over |Φ(B)| = 6 at position 1 closes one edge *)
  Alcotest.(check (option (float 1e-9)))
    "gamma learned from the fan-out" (Some 0.5)
    (Stats.gamma s (Some "A") (Some "B"))

let test_estimate_sizes () =
  let s = Stats.create () in
  let p = pattern [ "A"; "B" ] [ (0, 1) ] in
  Alcotest.(check (array int))
    "unseen buckets estimate n_nodes" [| 100; 100 |]
    (Stats.estimate_sizes s p ~n_nodes:100);
  Stats.observe_selectivity s ~label:(Some "A") ~degree:1 0.1;
  Alcotest.(check (array int))
    "seen bucket scales by the learned selectivity" [| 10; 100 |]
    (Stats.estimate_sizes s p ~n_nodes:100)

let test_snapshot_is_independent () =
  let s = Stats.create () in
  Stats.observe_gamma s (Some "A") (Some "B") 0.25;
  let snap = Stats.snapshot s in
  Stats.observe_gamma s (Some "A") (Some "B") 1.0;
  Alcotest.(check (option (float 1e-9)))
    "snapshot unaffected by later learning" (Some 0.25)
    (Stats.gamma snap (Some "A") (Some "B"));
  Alcotest.(check bool) "original moved on" true
    (Stats.gamma s (Some "A") (Some "B") <> Some 0.25)

let suite =
  [
    Alcotest.test_case "EWMA decay" `Quick test_ewma_decay;
    Alcotest.test_case "log2 degree buckets" `Quick test_bucket_sharing;
    Alcotest.test_case "gamma keys are unordered" `Quick test_gamma_unordered;
    Alcotest.test_case "observe_run feeds both tables; epoch bumps" `Quick
      test_observe_run_and_epoch;
    Alcotest.test_case "estimate_sizes falls back to n_nodes" `Quick
      test_estimate_sizes;
    Alcotest.test_case "snapshot is a deep copy" `Quick
      test_snapshot_is_independent;
  ]
