open Gql_core

(* One statement of every kind: assignment, return, let fold, DML, path
   query, create view, drop view. *)
let every_kind =
  {|graph P { node v1; node v2; edge e (v1, v2); };
    C := graph { node z; };
    for P exhaustive in doc("D") return graph { node P.v1; };
    for P exhaustive in doc("D") let C := graph { graph C; node P.v2; };
    insert node n <person name="x"> into doc("D").G;
    find path from a <k="s"> to b <k="t"> in doc("D");
    create materialized view hot as for P exhaustive in doc("D")
      return graph { node P.v1; };
    drop view hot;|}

let test_compile_shape () =
  let plan = Plan.compile (Gql.parse_program Test_eval.coauthor_query) in
  (* graph P definition compiles away; C := ...; for ... let C := ... *)
  Alcotest.(check int) "two statements" 2 (List.length plan);
  (match plan with
  | [ Plan.Assign ("C", Ast.Tgraph _); Plan.Fold ("C", sel, Ast.Tgraph _) ] ->
    Alcotest.(check string) "selection over the doc" "DBLP" sel.Plan.source;
    Alcotest.(check bool) "exhaustive" true sel.Plan.exhaustive;
    Alcotest.(check int) "one derivation" 1 (List.length sel.Plan.patterns);
    Alcotest.(check bool) "where filter kept" true (sel.Plan.where <> None)
  | _ -> Alcotest.fail "unexpected plan shape");
  match Plan.compile (Gql.parse_program every_kind) with
  | [
   Plan.Assign ("C", _);
   Plan.Return (_, _);
   Plan.Fold ("C", _, _);
   Plan.Write (Ast.Insert_node _);
   Plan.Path _;
   Plan.Create_view { name = "hot"; materialized = true; def; sel; _ };
   Plan.Drop_view "hot";
  ] ->
    (* the view carries its definition with the pattern resolved inline *)
    (match def.Ast.f_pattern with
    | `Inline d ->
      Alcotest.(check (option string)) "pattern named" (Some "P") d.Ast.g_name
    | `Named _ -> Alcotest.fail "view pattern left unresolved");
    Alcotest.(check string) "view pattern name" "P" sel.Plan.pname
  | plan ->
    Alcotest.failf "unexpected plan shape:@.%a" Plan.pp plan

let test_explain () =
  let plan = Plan.compile (Gql.parse_program Test_eval.coauthor_query) in
  let text = Format.asprintf "%a" Plan.pp plan in
  (* the §3.4 recursive algebraic expression: a fold of ω over σ *)
  Alcotest.(check bool) "mentions σ" true (Test_graph.contains text "σ[P");
  Alcotest.(check bool) "mentions fold-ω" true (Test_graph.contains text "fold-ω");
  Alcotest.(check bool) "mentions the source" true (Test_graph.contains text "doc(\"DBLP\")")

let test_compile_errors () =
  let fails src =
    match Plan.compile (Gql.parse_program src) with
    | exception Eval.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown pattern" true
    (fails {|for Nope in doc("X") return graph {}|});
  Alcotest.(check bool) "view with a let fold" true
    (fails
       {|create view v as for graph P { node a; } in doc("X")
         let C := graph { node P.a; };|})

let suite =
  [
    Alcotest.test_case "compilation shape" `Quick test_compile_shape;
    Alcotest.test_case "EXPLAIN output (§3.4 expression)" `Quick test_explain;
    Alcotest.test_case "compile errors" `Quick test_compile_errors;
  ]
