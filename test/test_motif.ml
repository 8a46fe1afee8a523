open Gql_core
open Gql_graph

let decl = Gql.parse_graph_decl

let g1_decl =
  decl "graph G1 { node v1, v2, v3; edge e1 (v1, v2); edge e2 (v2, v3); edge e3 (v3, v1); }"

(* Figure 4.4(a): concatenation by edges *)
let test_concat_by_edges () =
  let g2 =
    decl
      {|graph G2 {
          graph G1 as X;
          graph G1 as Y;
          edge e4 (X.v1, Y.v1);
          edge e5 (X.v3, Y.v2);
        }|}
  in
  let defs = Motif.defs_of_list [ ("G1", g1_decl) ] in
  let g = Motif.to_graph ~defs g2 in
  Alcotest.(check int) "6 nodes" 6 (Graph.n_nodes g);
  Alcotest.(check int) "8 edges" 8 (Graph.n_edges g);
  let x1 = Option.get (Graph.node_by_name g "X.v1") in
  let y1 = Option.get (Graph.node_by_name g "Y.v1") in
  Alcotest.(check bool) "new edge e4" true (Graph.has_edge g x1 y1)

(* Figure 4.4(b): concatenation by unification *)
let test_concat_by_unification () =
  let g3 =
    decl
      {|graph G3 {
          graph G1 as X;
          graph G1 as Y;
          unify X.v1, Y.v1;
          unify X.v3, Y.v2;
        }|}
  in
  let defs = Motif.defs_of_list [ ("G1", g1_decl) ] in
  let g = Motif.to_graph ~defs g3 in
  (* 6 proto nodes, 2 unifications -> 4 nodes; edges: X has (v1v2)(v2v3)(v3v1),
     Y has (v1v2)(v2v3)(v2v1 i.e. unified): X.e1=(Xv1,Xv2) Y.e1=(Yv1=Xv1, Yv2=Xv3)
     = edge (Xv1, Xv3) which duplicates X.e3 (v3,v1) -> unified. 3+3-1=5 edges *)
  Alcotest.(check int) "4 nodes" 4 (Graph.n_nodes g);
  Alcotest.(check int) "5 edges (e1 unified)" 5 (Graph.n_edges g)

(* Figure 4.5: disjunction *)
let test_disjunction () =
  let g4 =
    decl
      {|graph G4 {
          node v1, v2;
          edge e1 (v1, v2);
          { node v3; edge e2 (v1, v3); edge e3 (v2, v3); }
          | { node v3, v4; edge e2 (v1, v3); edge e3 (v2, v4); edge e4 (v3, v4); };
        }|}
  in
  let gs = List.of_seq (Motif.language g4) in
  Alcotest.(check int) "two derivations" 2 (List.length gs);
  match gs with
  | [ a; b ] ->
    Alcotest.(check int) "triangle branch: 3 nodes" 3 (Graph.n_nodes a);
    Alcotest.(check int) "triangle branch: 3 edges" 3 (Graph.n_edges a);
    Alcotest.(check int) "square branch: 4 nodes" 4 (Graph.n_nodes b);
    Alcotest.(check int) "square branch: 4 edges" 4 (Graph.n_edges b)
  | _ -> assert false

(* Figure 4.6(a): paths and cycles by repetition *)
let path_decl =
  decl
    {|graph Path {
        { graph Path; node v1; edge e1 (v1, Path.v1); export Path.v2 as v2; }
        | { node v1, v2; edge e1 (v1, v2); };
      }|}

let test_recursion_paths () =
  let defs = Motif.defs_of_list [ ("Path", path_decl) ] in
  let gs = List.of_seq (Seq.take 4 (Motif.language ~defs ~max_depth:8 path_decl)) in
  Alcotest.(check int) "4 derivations taken" 4 (List.length gs);
  let sizes = List.map (fun g -> (Graph.n_nodes g, Graph.n_edges g)) gs in
  (* shallowest derivations first (iterative deepening): the base case,
     then one recursion level each *)
  Alcotest.(check (list (pair int int))) "path sizes"
    [ (2, 1); (3, 2); (4, 3); (5, 4) ]
    sizes;
  (* every derivation exports v1 and v2 at the top *)
  List.iter
    (fun g ->
      Alcotest.(check bool) "v1 exists" true (Graph.node_by_name g "v1" <> None);
      Alcotest.(check bool) "v2 exists" true (Graph.node_by_name g "v2" <> None))
    gs

let test_recursion_cycles () =
  let cycle =
    decl {|graph Cycle { graph Path; edge e1 (Path.v1, Path.v2); }|}
  in
  let defs = Motif.defs_of_list [ ("Path", path_decl); ("Cycle", cycle) ] in
  let gs = List.of_seq (Seq.take 3 (Motif.language ~defs ~max_depth:8 cycle)) in
  List.iter
    (fun g ->
      Alcotest.(check int) "cycle: edges = nodes" (Graph.n_nodes g) (Graph.n_edges g);
      Graph.iter_nodes g ~f:(fun v ->
          Alcotest.(check int) "every node has degree 2" 2 (Graph.degree g v)))
    gs

(* Figure 4.6(b): repetition of motif G1 around a root *)
let test_repetition_of_motif () =
  let g5 =
    decl
      {|graph G5 {
          { graph G5; graph G1; export G5.v0 as v0; edge e1 (v0, G1.v1); }
          | { node v0 };
        }|}
  in
  let defs = Motif.defs_of_list [ ("G1", g1_decl); ("G5", g5) ] in
  let gs = List.of_seq (Seq.take 3 (Motif.language ~defs ~max_depth:6 g5)) in
  let sizes = List.map (fun g -> Graph.n_nodes g) gs in
  (* "the first resulting graph consists of node v0 alone, the second of
     v0 connected to G1, ..." — base-first enumeration *)
  Alcotest.(check (list int)) "sizes 1, 4, 7" [ 1; 4; 7 ] sizes

let test_unify_merges_tuples () =
  let d =
    decl
      {|graph G { node a <x=1>; node b <y=2>; unify a, b; }|}
  in
  let g = Motif.to_graph d in
  Alcotest.(check int) "one node" 1 (Graph.n_nodes g);
  let t = Graph.node_tuple g 0 in
  Alcotest.(check bool) "x kept" true (Tuple.get t "x" = Value.Int 1);
  Alcotest.(check bool) "y kept" true (Tuple.get t "y" = Value.Int 2)

let test_pattern_predicates_pushed () =
  let flats =
    Gql.patterns_of_string
      {|graph P { node v1; node v2; edge e1 (v1, v2); }
        where v1.label="A" & v2.label="B" & v1.weight > v2.weight|}
  in
  match flats with
  | [ p ] ->
    let module FP = Gql_matcher.Flat_pattern in
    Alcotest.(check (option string)) "v1 label derived" (Some "A")
      (FP.required_label p 0);
    Alcotest.(check (option string)) "v2 label derived" (Some "B")
      (FP.required_label p 1);
    Alcotest.(check bool) "cross-node conjunct stays global" false
      (Gql_graph.Pred.equal p.FP.global_pred Gql_graph.Pred.True)
  | _ -> Alcotest.fail "expected exactly one derivation"

let test_motif_errors () =
  let fails s =
    match Motif.to_graph (decl s) with
    | exception Motif.Error _ -> true
    | exception Error.E _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown ref" true (fails "graph G { graph Nope; }");
  Alcotest.(check bool) "unknown endpoint" true (fails "graph G { node a; edge e (a, b); }");
  Alcotest.(check bool) "duplicate node name" true (fails "graph G { node a; node a; }");
  Alcotest.(check bool) "unify unknown" true (fails "graph G { node a; unify a, zz; }");
  Alcotest.(check bool) "ambiguous literal" true
    (fails "graph G { { node a; } | { node a, b; }; }")

let test_depth_bound () =
  let defs = Motif.defs_of_list [ ("Path", path_decl) ] in
  let all = List.of_seq (Motif.language ~defs ~max_depth:3 path_decl) in
  (* nesting depths 0..3: paths of 2, 3, 4 and 5 nodes *)
  Alcotest.(check int) "finite language under bound" 4 (List.length all)

(* Naming rules that canonical output depends on *)

let error_of ?defs s =
  match Motif.to_graph ?defs (decl s) with
  | exception Motif.Error msg -> msg
  | _ -> "no error"

(* an edge with several names prints as the one added last in the
   outermost scope that names it *)
let test_export_names () =
  Alcotest.(check string) "top-level export renames the edge"
    "graph G {\n  node a;\n  node b;\n  edge f (a, b);\n}"
    (Graph.to_string
       (Motif.to_graph
          (decl "graph G { node a, b; edge e (a, b); export e as f; }")));
  let i = decl "graph I { node a, b; edge e (a, b); export e as f; }" in
  let defs = Motif.defs_of_list [ ("I", i) ] in
  Alcotest.(check string) "a reference keeps the export name"
    "graph G {\n  node X.a;\n  node X.b;\n  edge X.f (X.a, X.b);\n}"
    (Graph.to_string (Motif.to_graph ~defs (decl "graph G { graph I as X; }")));
  Alcotest.(check string) "an outer name wins over inner ones"
    "graph G {\n  node X.a;\n  node X.b;\n  edge g (X.a, X.b);\n}"
    (Graph.to_string
       (Motif.to_graph ~defs (decl "graph G { graph I as X; export X.e as g; }")))

let test_duplicate_name_errors () =
  Alcotest.(check string) "node" "duplicate node name a"
    (error_of "graph G { node a; node a; }");
  Alcotest.(check string) "edge" "duplicate edge name e"
    (error_of "graph G { node a, b; edge e (a, b); edge e (b, a); }");
  Alcotest.(check string) "export onto a node name" "duplicate node name a"
    (error_of "graph G { node a, b; export b as a; }");
  let defs = Motif.defs_of_list [ ("I", decl "graph I { node a; }") ] in
  Alcotest.(check string) "alias" "duplicate graph alias X"
    (error_of ~defs "graph G { graph I as X; graph I as X; }")

(* the scope is persistent: a name declared in one branch of a
   disjunction is unknown in its siblings *)
let test_alt_branches_isolated () =
  let g =
    decl
      "graph G { node a; { node b; edge (a, b); } | { node b; edge (b, a); }; }"
  in
  Alcotest.(check int) "both branches declare b" 2
    (List.length (List.of_seq (Motif.language g)));
  let g = decl "graph G { node a; { node c; } | { edge (a, c); }; }" in
  match List.of_seq (Motif.language g) with
  | exception Motif.Error msg ->
    Alcotest.(check string) "c does not leak" "unknown edge endpoint c" msg
  | _ -> Alcotest.fail "the second branch resolved a sibling's node"

let test_collection_first_decl_wins () =
  let gs =
    Gql.collection_of_string
      {|graph I { node a, b; edge e (a, b); };
        graph G { graph I as X; };
        graph I { node other; };|}
  in
  Alcotest.(check (list string)) "G references the first I"
    [
      "graph I {\n  node a;\n  node b;\n  edge e (a, b);\n}";
      "graph G {\n  node X.a;\n  node X.b;\n  edge X.e (X.a, X.b);\n}";
      "graph I {\n  node other;\n}";
    ]
    (List.map Graph.to_string gs)

let suite =
  [
    Alcotest.test_case "concatenation by edges (Fig 4.4a)" `Quick test_concat_by_edges;
    Alcotest.test_case "concatenation by unification (Fig 4.4b)" `Quick
      test_concat_by_unification;
    Alcotest.test_case "disjunction (Fig 4.5)" `Quick test_disjunction;
    Alcotest.test_case "recursive paths (Fig 4.6a)" `Quick test_recursion_paths;
    Alcotest.test_case "recursive cycles (Fig 4.6a)" `Quick test_recursion_cycles;
    Alcotest.test_case "repetition of a motif (Fig 4.6b)" `Quick test_repetition_of_motif;
    Alcotest.test_case "unify merges tuples" `Quick test_unify_merges_tuples;
    Alcotest.test_case "predicate pushdown in derivations" `Quick
      test_pattern_predicates_pushed;
    Alcotest.test_case "derivation errors" `Quick test_motif_errors;
    Alcotest.test_case "depth bound" `Quick test_depth_bound;
    Alcotest.test_case "export names are canonical edge names" `Quick
      test_export_names;
    Alcotest.test_case "duplicate name errors" `Quick test_duplicate_name_errors;
    Alcotest.test_case "names do not leak across branches" `Quick
      test_alt_branches_isolated;
    Alcotest.test_case "collection references resolve to the first decl" `Quick
      test_collection_first_decl_wins;
  ]
