open Gql_core

let test_simple_graph () =
  (* Figure 4.3 *)
  let g =
    Gql.graph_of_string
      "graph G1 { node v1, v2, v3; edge e1 (v1, v2); edge e2 (v2, v3); edge e3 (v3, v1); }"
  in
  Alcotest.(check int) "3 nodes" 3 (Gql_graph.Graph.n_nodes g);
  Alcotest.(check int) "3 edges" 3 (Gql_graph.Graph.n_edges g);
  Alcotest.(check (option string)) "graph name" (Some "G1") (Gql_graph.Graph.name g);
  Alcotest.(check (option int)) "node lookup" (Some 0)
    (Gql_graph.Graph.node_by_name g "v1");
  Alcotest.(check (option int)) "edge lookup" (Some 2)
    (Gql_graph.Graph.edge_by_name g "e3")

let test_attributes () =
  (* Figure 4.7 *)
  let g =
    Gql.graph_of_string
      {|graph G <inproceedings> {
          node v1 <title="Title1", year=2006>;
          node v2 <author name="A">;
          node v3 <author name="B">;
        };|}
  in
  Alcotest.(check int) "no edges" 0 (Gql_graph.Graph.n_edges g);
  Alcotest.(check (option string)) "graph tag" (Some "inproceedings")
    (Gql_graph.Tuple.tag (Gql_graph.Graph.tuple g));
  let t1 = Gql_graph.Graph.node_tuple g 0 in
  Alcotest.(check bool) "title attr" true
    (Gql_graph.Tuple.get t1 "title" = Gql_graph.Value.Str "Title1");
  Alcotest.(check bool) "year attr" true
    (Gql_graph.Tuple.get t1 "year" = Gql_graph.Value.Int 2006);
  let t2 = Gql_graph.Graph.node_tuple g 1 in
  Alcotest.(check (option string)) "author tag" (Some "author") (Gql_graph.Tuple.tag t2)

let test_pattern_where_forms () =
  (* Figure 4.8: the two equivalent forms *)
  let p1 =
    Gql.pattern_of_string
      {|graph P { node v1; node v2; } where v1.name="A" & v2.year>2000|}
  in
  let p2 =
    Gql.pattern_of_string
      {|graph P { node v1 where name="A"; node v2 where year>2000; }|}
  in
  let g =
    Gql.graph_of_string
      {|graph G { node a <name="A">; node b <year=2006>; }|}
  in
  Alcotest.(check int) "form 1 matches" 1
    (List.length (Gql.find_matches ~pattern:"graph P { node v1; node v2; } where v1.name=\"A\" & v2.year>2000" g));
  ignore p1;
  ignore p2;
  let count p =
    let patterns = [ p ] in
    List.length (Algebra.select ~patterns [ Algebra.G g ])
  in
  Alcotest.(check int) "both forms equal" (count p1) (count p2)

let test_expression_precedence () =
  let open Gql_graph.Pred in
  let e = Parser.expression "a.x + 2 * 3 == 7 & b.y > 1 | c.z < 0" in
  (* | binds loosest *)
  match e with
  | Binop (Or, Binop (And, Binop (Eq, Binop (Add, _, Binop (Mul, _, _)), _), _), _) ->
    ()
  | _ -> Alcotest.fail "unexpected parse tree"

let test_parse_errors () =
  let fails s =
    match Gql.parse_program s with
    | exception Error.E _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unclosed brace" true (fails "graph G { node v1;");
  Alcotest.(check bool) "bad token" true (fails "graph G { node $v; }");
  Alcotest.(check bool) "unify arity" true (fails "graph G { node a; unify a; }");
  Alcotest.(check bool) "trailing garbage" true (fails "graph G { } extra");
  Alcotest.(check bool) "unterminated string" true (fails "graph G <x=\"oops> { }")

let test_error_position () =
  match Gql.parse_program "graph G {\n  node v1;\n  oops;\n}" with
  | exception Error.E (Error.Parse { line; _ } as t) ->
    Alcotest.(check int) "line 3" 3 line;
    Alcotest.(check bool) "position rendered" true
      (Test_graph.contains (Error.to_string t) "3:")
  | _ -> Alcotest.fail "expected a parse error"

let test_comments () =
  let g =
    Gql.graph_of_string
      "graph G { // line comment\n node v1; /* block\n comment */ node v2; }"
  in
  Alcotest.(check int) "comments skipped" 2 (Gql_graph.Graph.n_nodes g)

let test_flwr_parse () =
  let prog =
    Gql.parse_program
      {|graph P { node v1 <author>; node v2 <author>; } where P.booktitle="SIGMOD";
        C := graph {};
        for P exhaustive in doc("DBLP")
        let C := graph {
          graph C;
          node P.v1, P.v2;
          edge e1 (P.v1, P.v2);
          unify P.v1, C.v1 where P.v1.name=C.v1.name;
          unify P.v2, C.v2 where P.v2.name=C.v2.name;
        }|}
  in
  Alcotest.(check int) "three statements" 3 (List.length prog);
  match prog with
  | [ Ast.Sgraph g; Ast.Sassign ("C", _); Ast.Sflwr f ] ->
    Alcotest.(check (option string)) "pattern name" (Some "P") g.Ast.g_name;
    Alcotest.(check bool) "exhaustive" true f.Ast.f_exhaustive;
    Alcotest.(check string) "source" "DBLP" f.Ast.f_source;
    (match f.Ast.f_body with
    | Ast.Let ("C", Ast.Tgraph body) ->
      Alcotest.(check int) "template members" 5 (List.length body.Ast.g_members)
    | _ -> Alcotest.fail "expected let body")
  | _ -> Alcotest.fail "unexpected statement shapes"

let test_pp_parse_roundtrip () =
  let src =
    {|graph P { node v1 <author name="A">; node v2; edge e1 (v1, v2); } where v2.year > 2000|}
  in
  let d1 = Gql.parse_graph_decl src in
  let printed = Format.asprintf "%a" Ast.pp_graph_decl d1 in
  let d2 = Gql.parse_graph_decl printed in
  let p1 = Format.asprintf "%a" Ast.pp_graph_decl d2 in
  Alcotest.(check string) "pp . parse . pp is stable" printed p1

let test_disjunction_parse () =
  (* Figure 4.5 *)
  let d =
    Gql.parse_graph_decl
      {|graph G4 {
          node v1, v2;
          edge e1 (v1, v2);
          { node v3; edge e2 (v1, v3); edge e3 (v2, v3); }
          | { node v3, v4; edge e2 (v1, v3); edge e3 (v2, v4); edge e4 (v3, v4); };
        }|}
  in
  match d.Ast.g_members with
  | [ _; _; Ast.Alt [ b1; b2 ] ] ->
    (* each node/edge statement is one member *)
    Alcotest.(check int) "branch 1" 3 (List.length b1);
    Alcotest.(check int) "branch 2" 4 (List.length b2)
  | _ -> Alcotest.fail "expected an Alt member"

let test_dml_parse () =
  let prog =
    Gql.parse_program
      {|insert node c <person name="carol"> into doc("mols").G1;
        insert edge e9 (a, c) into doc("mols").G1;
        insert edge (c, b) into doc("mols").G1;
        insert graph G2 { node x <label="X">; } into doc("mols");
        update node doc("mols").G1.a set <name="alicia">;
        update edge doc("mols").G1.e1 set <weight=2>;
        delete node doc("mols").G1.c;
        delete edge doc("mols").G1.e1;
        delete graph doc("mols").G2;|}
  in
  Alcotest.(check int) "nine statements" 9 (List.length prog);
  Alcotest.(check int) "all count as DML" 9 (Ast.count_dml prog);
  let dml = function Ast.Sdml d -> d | _ -> Alcotest.fail "expected Sdml" in
  (match dml (List.nth prog 0) with
  | Ast.Insert_node { i_name; i_tuple = Some t; i_into } ->
    Alcotest.(check string) "node name" "c" i_name;
    Alcotest.(check (option string)) "tuple tag" (Some "person") t.Ast.tag;
    Alcotest.(check string) "doc" "mols" i_into.Ast.d_doc;
    Alcotest.(check string) "graph" "G1" i_into.Ast.d_graph
  | _ -> Alcotest.fail "expected insert node");
  (match dml (List.nth prog 1) with
  | Ast.Insert_edge { i_name; i_src; i_dst; _ } ->
    Alcotest.(check (option string)) "edge name" (Some "e9") i_name;
    Alcotest.(check string) "src" "a" i_src;
    Alcotest.(check string) "dst" "c" i_dst
  | _ -> Alcotest.fail "expected insert edge");
  (match dml (List.nth prog 2) with
  | Ast.Insert_edge { i_name = None; _ } -> ()
  | _ -> Alcotest.fail "expected anonymous insert edge");
  (match dml (List.nth prog 3) with
  | Ast.Insert_graph { i_decl; i_doc } ->
    Alcotest.(check (option string)) "graph name" (Some "G2") i_decl.Ast.g_name;
    Alcotest.(check string) "target doc" "mols" i_doc
  | _ -> Alcotest.fail "expected insert graph");
  (match dml (List.nth prog 4) with
  | Ast.Update_node { u_node = "a"; _ } -> ()
  | _ -> Alcotest.fail "expected update node");
  (match dml (List.nth prog 5) with
  | Ast.Update_edge { u_edge = "e1"; _ } -> ()
  | _ -> Alcotest.fail "expected update edge");
  (match dml (List.nth prog 6) with
  | Ast.Delete_node { x_node = "c"; _ } -> ()
  | _ -> Alcotest.fail "expected delete node");
  (match dml (List.nth prog 7) with
  | Ast.Delete_edge { x_edge = "e1"; _ } -> ()
  | _ -> Alcotest.fail "expected delete edge");
  match dml (List.nth prog 8) with
  | Ast.Delete_graph r -> Alcotest.(check string) "graph" "G2" r.Ast.d_graph
  | _ -> Alcotest.fail "expected delete graph"

let test_dml_parse_errors () =
  let rejected s =
    match Gql.parse_program s with
    | exception Error.E (Error.Parse _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "insert without target" true
    (rejected "insert node c <x=1>;");
  Alcotest.(check bool) "update without set" true
    (rejected {|update node doc("d").G.a <x=1>;|});
  Alcotest.(check bool) "delete of unknown kind" true
    (rejected {|delete thing doc("d").G.a;|})

(* Nesting is bounded at 512 levels: deeper input is a typed parse
   error at the first opener past the bound, never a stack overflow.
   Each case is (name, parser, text at depth d, offset of opener d). *)
let test_nesting_bound () =
  let rep s d = String.concat "" (List.init d (fun _ -> s)) in
  let expression text = ignore (Parser.expression text) in
  let graph text = ignore (Parser.graph text) in
  let cases =
    [
      ( "parentheses",
        expression,
        (fun d -> rep "(" d ^ "1" ^ rep ")" d),
        fun d -> d - 1 );
      ("negations", expression, (fun d -> rep "!" d ^ "true"), fun d -> d - 1);
      ( "unary minus",
        expression,
        (fun d -> rep "- " d ^ "1"),
        fun d -> 2 * (d - 1) );
      ( "pattern blocks",
        graph,
        (fun d -> "graph G { " ^ rep "{ " d ^ "node v; " ^ rep "} " d ^ "}"),
        fun d -> 10 + (2 * (d - 1)) );
    ]
  in
  List.iter
    (fun (name, parse, text, opener) ->
      (match parse (text 512) with
      | () -> ()
      | exception Parser.Error (msg, _) ->
        Alcotest.failf "%s: depth 512 must parse, got %s" name msg);
      List.iter
        (fun d ->
          match parse (text d) with
          | () -> Alcotest.failf "%s: depth %d parsed" name d
          | exception Parser.Error (_, off) ->
            Alcotest.(check int)
              (Printf.sprintf "%s: depth %d fails at opener 513" name d)
              (opener 513) off)
        [ 513; 100_000 ])
    cases

let suite =
  [
    Alcotest.test_case "simple graph motif (Fig 4.3)" `Quick test_simple_graph;
    Alcotest.test_case "attributed graph (Fig 4.7)" `Quick test_attributes;
    Alcotest.test_case "where forms (Fig 4.8)" `Quick test_pattern_where_forms;
    Alcotest.test_case "expression precedence" `Quick test_expression_precedence;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "error positions" `Quick test_error_position;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "FLWR parse (Fig 4.12)" `Quick test_flwr_parse;
    Alcotest.test_case "pretty-print round trip" `Quick test_pp_parse_roundtrip;
    Alcotest.test_case "disjunction parse (Fig 4.5)" `Quick test_disjunction_parse;
    Alcotest.test_case "DML statements parse" `Quick test_dml_parse;
    Alcotest.test_case "DML parse errors" `Quick test_dml_parse_errors;
    Alcotest.test_case "nesting is bounded at 512 levels" `Quick
      test_nesting_bound;
  ]
