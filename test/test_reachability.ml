open Gql_graph
open Gql_index

let bfs_reachable g u v =
  if u = v then true
  else begin
    let seen = Array.make (Graph.n_nodes g) false in
    let q = Queue.create () in
    seen.(u) <- true;
    Queue.add u q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let x = Queue.pop q in
      Array.iter
        (fun w ->
          if w = v then found := true;
          if not seen.(w) then begin
            seen.(w) <- true;
            Queue.add w q
          end)
        (Graph.adj_nbrs g x)
    done;
    !found
  end

let test_undirected_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let t = Reachability.build g in
  Alcotest.(check int) "three components" 3 (Reachability.n_components t);
  Alcotest.(check bool) "0-2 connected" true (Reachability.reachable t 0 2);
  Alcotest.(check bool) "2-0 symmetric" true (Reachability.reachable t 2 0);
  Alcotest.(check bool) "0-3 disconnected" false (Reachability.reachable t 0 3);
  Alcotest.(check bool) "isolated node" false (Reachability.reachable t 5 0);
  Alcotest.(check bool) "self" true (Reachability.reachable t 5 5)

let test_directed_dag () =
  let g = Graph.of_edges ~directed:true ~n:4 [ (0, 1); (1, 2); (0, 3) ] in
  let t = Reachability.build g in
  Alcotest.(check int) "four singleton sccs" 4 (Reachability.n_components t);
  Alcotest.(check bool) "0 reaches 2" true (Reachability.reachable t 0 2);
  Alcotest.(check bool) "2 cannot go back" false (Reachability.reachable t 2 0);
  Alcotest.(check bool) "3 reaches nothing" false (Reachability.reachable t 3 1)

let test_directed_scc () =
  (* cycle 0->1->2->0 plus tail 2->3 *)
  let g = Graph.of_edges ~directed:true ~n:4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let t = Reachability.build g in
  Alcotest.(check int) "cycle collapses" 2 (Reachability.n_components t);
  Alcotest.(check bool) "within scc" true (Reachability.reachable t 1 0);
  Alcotest.(check bool) "scc to tail" true (Reachability.reachable t 0 3);
  Alcotest.(check bool) "tail cannot return" false (Reachability.reachable t 3 0);
  Alcotest.(check int) "same component ids" (Reachability.component t 0)
    (Reachability.component t 2)

let gen_directed =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    list_size (int_range 0 25) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >|= fun edges ->
    Graph.of_edges ~directed:true ~n (List.sort_uniq compare (List.filter (fun (a, b) -> a <> b) edges)))

let prop_directed_matches_bfs =
  QCheck.Test.make ~name:"directed reachability index = BFS oracle" ~count:200
    (QCheck.make gen_directed)
    (fun g ->
      let t = Gql_index.Reachability.build g in
      let n = Graph.n_nodes g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Gql_index.Reachability.reachable t u v <> bfs_reachable g u v then
            ok := false
        done
      done;
      !ok)

let prop_undirected_matches_bfs =
  QCheck.Test.make ~name:"undirected reachability index = BFS oracle" ~count:200
    (QCheck.make (Test_matcher.gen_labeled_graph ~max_n:10))
    (fun g ->
      let t = Gql_index.Reachability.build g in
      let n = Graph.n_nodes g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Gql_index.Reachability.reachable t u v <> bfs_reachable g u v then
            ok := false
        done
      done;
      !ok)

let test_recursive_path_pattern_agreement () =
  (* reachability answers "does some derivation of the recursive Path
     pattern match with v1 -> u, v2 -> v" for connected distinct nodes *)
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (4, 5) ] in
  let t = Reachability.build g in
  let patterns =
    List.of_seq
      (Gql_core.Motif.flat_patterns
         ~defs:(Gql_core.Motif.defs_of_list [ ("Path", Test_recursive.path_decl) ])
         ~max_depth:6 Test_recursive.path_decl)
  in
  let path_match u v =
    List.exists
      (fun p ->
        Gql_graph.Iso.find_embeddings
          ~compat:(fun _ _ -> true)
          ~fixed:
            [ (Option.get (Graph.node_by_name p.Gql_matcher.Flat_pattern.structure "v1"), u);
              (Option.get (Graph.node_by_name p.Gql_matcher.Flat_pattern.structure "v2"), v) ]
          ~limit:1
          ~pattern:p.Gql_matcher.Flat_pattern.structure ~target:g ()
        <> [])
      patterns
  in
  for u = 0 to 5 do
    for v = 0 to 5 do
      if u <> v then
        Alcotest.(check bool)
          (Printf.sprintf "reach(%d,%d) = path-pattern match" u v)
          (Reachability.reachable t u v)
          (path_match u v)
    done
  done

let suite =
  [
    Alcotest.test_case "undirected components" `Quick test_undirected_components;
    Alcotest.test_case "directed DAG" `Quick test_directed_dag;
    Alcotest.test_case "SCC collapse" `Quick test_directed_scc;
    QCheck_alcotest.to_alcotest prop_directed_matches_bfs;
    QCheck_alcotest.to_alcotest prop_undirected_matches_bfs;
    Alcotest.test_case "recursive path patterns = reachability" `Quick
      test_recursive_path_pattern_agreement;
  ]
