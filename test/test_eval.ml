open Gql_core
open Gql_graph

(* the DBLP collection of Figure 4.13 *)
let dblp () =
  let paper authors =
    let b = Graph.Builder.create () in
    List.iteri
      (fun i name ->
        ignore
          (Graph.Builder.add_node b
             ~name:(Printf.sprintf "v%d" (i + 1))
             (Tuple.make ~tag:"author" [ ("name", Value.Str name) ])))
      authors;
    Graph.Builder.build b
  in
  [ paper [ "A"; "B" ]; paper [ "C"; "D"; "A" ] ]

let coauthor_query =
  {|graph P { node v1 <author>; node v2 <author>; };
    C := graph {};
    for P exhaustive in doc("DBLP")
    where P.v1.name < P.v2.name
    let C := graph {
      graph C;
      node P.v1, P.v2;
      edge e1 (P.v1, P.v2);
      unify P.v1, C.v1 where P.v1.name=C.v1.name;
      unify P.v2, C.v2 where P.v2.name=C.v2.name;
    }|}

(* Figure 4.13: resulting co-authorship graph has nodes A B C D and
   edges A-B, C-D, A-C, A-D *)
let test_coauthorship_figure_4_13 () =
  let result = Gql.run_query ~docs:[ ("DBLP", dblp ()) ] coauthor_query in
  match Eval.var result "C" with
  | None -> Alcotest.fail "C not bound"
  | Some c ->
    Alcotest.(check int) "4 authors" 4 (Graph.n_nodes c);
    Alcotest.(check int) "4 co-authorship edges" 4 (Graph.n_edges c);
    let node_of name =
      let found = ref None in
      Graph.iter_nodes c ~f:(fun v ->
          if Tuple.get (Graph.node_tuple c v) "name" = Value.Str name then
            found := Some v);
      match !found with
      | Some v -> v
      | None -> Alcotest.fail (Printf.sprintf "author %s missing" name)
    in
    let a = node_of "A" and b = node_of "B" and cc = node_of "C" and d = node_of "D" in
    Alcotest.(check bool) "A-B" true (Graph.has_edge c a b);
    Alcotest.(check bool) "C-D" true (Graph.has_edge c cc d);
    Alcotest.(check bool) "A-C" true (Graph.has_edge c a cc);
    Alcotest.(check bool) "A-D" true (Graph.has_edge c a d);
    Alcotest.(check bool) "no B-C" false (Graph.has_edge c b cc)

(* without the where filter, both orientations of each pair are matched;
   unification must still keep each author unique *)
let test_coauthorship_unordered () =
  let query =
    {|graph P { node v1 <author>; node v2 <author>; };
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
  let result = Gql.run_query ~docs:[ ("DBLP", dblp ()) ] query in
  let c = Option.get (Eval.var result "C") in
  Alcotest.(check int) "still 4 authors" 4 (Graph.n_nodes c);
  Alcotest.(check int) "still 4 edges" 4 (Graph.n_edges c)

let test_return_collection () =
  let query =
    {|for graph P { node v1 <author>; node v2 <author>; }
      exhaustive in doc("DBLP")
      where P.v1.name < P.v2.name
      return graph {
        node a <name=P.v1.name>;
        node b <name=P.v2.name>;
        edge e (a, b);
      }|}
  in
  let result = Gql.run_query ~docs:[ ("DBLP", dblp ()) ] query in
  let graphs = Eval.returned result in
  (* pairs: (A,B) from paper 1; (C,D), (A,C), (A,D) from paper 2 *)
  Alcotest.(check int) "4 result graphs" 4 (List.length graphs);
  List.iter
    (fun g ->
      Alcotest.(check int) "pair graph nodes" 2 (Graph.n_nodes g);
      Alcotest.(check int) "pair graph edge" 1 (Graph.n_edges g))
    graphs

let test_non_exhaustive_for () =
  let query =
    "for graph P { node v1 <author>; } in doc(\"DBLP\") return graph { node a <name=P.v1.name>; }"
  in
  let result = Gql.run_query ~docs:[ ("DBLP", dblp ()) ] query in
  (* one mapping per collection graph *)
  Alcotest.(check int) "one match per paper" 2 (List.length (Eval.returned result))

let test_unknown_collection () =
  match Gql.run_query "for graph P { node v1; } in doc(\"nope\") return graph {}" with
  | exception Error.E t ->
    Alcotest.(check bool) "mentions collection" true
      (Test_graph.contains (Error.to_string t) "nope")
  | _ -> Alcotest.fail "expected an error"

let test_variable_as_source () =
  let query =
    {|C := graph { node a <label="A">; node b <label="B">; edge e (a, b); };
      for graph P { node v1 where label="A"; } in doc("C")
      return graph { node out <found=1>; }|}
  in
  let result = Gql.run_query query in
  Alcotest.(check int) "variable used as doc source" 1
    (List.length (Eval.returned result))

let test_assignment_and_template_env () =
  let query =
    {|BASE := graph { node x <label="X">; };
      EXT := graph { graph BASE; node y <label="Y">; };|}
  in
  let result = Gql.run_query query in
  let ext = Option.get (Eval.var result "EXT") in
  Alcotest.(check int) "included + new" 2 (Graph.n_nodes ext)

(* ---- DML ---- *)

let mol () =
  let b = Graph.Builder.create ~name:"G1" () in
  let a = Graph.Builder.add_labeled_node b ~name:"a" "A" in
  let b1 = Graph.Builder.add_labeled_node b ~name:"b" "B" in
  ignore (Graph.Builder.add_edge b ~name:"e1" a b1);
  Graph.Builder.build b

let test_dml_round_trip () =
  let writes = ref [] in
  let result =
    Gql.run_query
      ~docs:[ ("mols", [ mol () ]) ]
      ~writer:(fun w -> writes := w :: !writes)
      {|insert node c <label="C" x=1> into doc("mols").G1;
        insert edge e2 (b, c) into doc("mols").G1;
        update node doc("mols").G1.a set <seen=1>;
        delete edge doc("mols").G1.e1;|}
  in
  Alcotest.(check int) "four writes applied" 4 result.Eval.writes;
  Alcotest.(check int) "four writes reported" 4 (List.length !writes);
  (* every write here is an in-place update of the same graph; the last
     report carries the final state *)
  match !writes with
  | Eval.W_update { new_graph; index; source; ops; _ } :: _ ->
    Alcotest.(check string) "doc" "mols" source;
    Alcotest.(check int) "graph position" 0 index;
    Alcotest.(check int) "one op per DML statement" 1 (List.length ops);
    Alcotest.(check int) "node inserted" 3 (Graph.n_nodes new_graph);
    Alcotest.(check int) "edge inserted, edge deleted" 1 (Graph.n_edges new_graph);
    Alcotest.(check (option int)) "new node addressable" (Some 2)
      (Graph.node_by_name new_graph "c");
    (* update merges: the label survives, the new field lands *)
    let at = Graph.node_tuple new_graph 0 in
    Alcotest.(check bool) "merged field" true (Tuple.get at "seen" = Value.Int 1);
    Alcotest.(check string) "label survives the merge" "A"
      (Graph.label new_graph 0)
  | _ -> Alcotest.fail "expected W_update reports"

let test_dml_read_your_writes () =
  (* a FLWR after DML in the same program sees the mutated doc *)
  let result =
    Gql.run_query
      ~docs:[ ("mols", [ mol () ]) ]
      {|insert node c <label="B"> into doc("mols").G1;
        insert edge (a, c) into doc("mols").G1;
        for graph P { node x where label="A"; node y where label="B"; edge e (x, y); }
        exhaustive in doc("mols")
        return graph { node m <hit=1>; };|}
  in
  Alcotest.(check int) "two writes" 2 result.Eval.writes;
  Alcotest.(check int) "read sees its own writes" 2
    (List.length (Eval.returned result))

let test_dml_graph_lifecycle () =
  let writes = ref [] in
  let result =
    Gql.run_query
      ~docs:[ ("mols", [ mol () ]) ]
      ~writer:(fun w -> writes := w :: !writes)
      {|insert graph G2 { node x <label="X">; node y <label="Y">; edge e (x, y); } into doc("mols");
        delete graph doc("mols").G1;|}
  in
  Alcotest.(check int) "two writes" 2 result.Eval.writes;
  (match List.rev !writes with
  | [ Eval.W_insert { source = "mols"; new_graph }; Eval.W_remove { index = 0; _ } ] ->
    Alcotest.(check (option string)) "inserted graph named" (Some "G2")
      (Graph.name new_graph);
    Alcotest.(check int) "instantiated members" 2 (Graph.n_nodes new_graph)
  | _ -> Alcotest.fail "expected an insert then a remove")

let test_dml_errors () =
  let fails src =
    match Gql.run_query ~docs:[ ("mols", [ mol () ]) ] src with
    | exception Error.E (Error.Eval _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown graph" true
    (fails {|insert node c into doc("mols").NOPE;|});
  Alcotest.(check bool) "unknown node" true
    (fails {|update node doc("mols").G1.zz set <x=1>;|});
  Alcotest.(check bool) "duplicate node name" true
    (fails {|insert node a into doc("mols").G1;|});
  Alcotest.(check bool) "duplicate graph name" true
    (fails {|insert graph G1 { node x; } into doc("mols");|});
  Alcotest.(check bool) "non-constant attribute" true
    (fails {|insert node c <x=P.v1.name> into doc("mols").G1;|})

(* A pattern of [n] two-way alternatives: 2^n derivations. *)
let alternatives n =
  "graph P { "
  ^ String.concat " "
      (List.init n (fun i ->
           Printf.sprintf "{ node a%d; } | { node b%d; };" i i))
  ^ " }"

(* Each statement is compiled just before it runs: a compile error in a
   later statement surfaces after the earlier writes reached the sink. *)
let test_effects_before_compile_error () =
  let writes = ref 0 in
  match
    Eval.run
      ~docs:[ ("mols", [ mol () ]) ]
      ~writer:(fun _ -> incr writes)
      (Gql.parse_program
         {|insert node c <label="C"> into doc("mols").G1;
           for Nope in doc("mols") return graph { node m; };|})
  with
  | exception Eval.Error _ ->
    Alcotest.(check int) "the insert reached the writer" 1 !writes
  | _ -> Alcotest.fail "the unknown pattern should fail"

let suite =
  [
    Alcotest.test_case "co-authorship query (Fig 4.12/4.13)" `Quick
      test_coauthorship_figure_4_13;
    Alcotest.test_case "co-authorship without ordering filter" `Quick
      test_coauthorship_unordered;
    Alcotest.test_case "return collections" `Quick test_return_collection;
    Alcotest.test_case "non-exhaustive for" `Quick test_non_exhaustive_for;
    Alcotest.test_case "unknown collection error" `Quick test_unknown_collection;
    Alcotest.test_case "variable as doc source" `Quick test_variable_as_source;
    Alcotest.test_case "assignment and template env" `Quick
      test_assignment_and_template_env;
    Alcotest.test_case "DML round trip" `Quick test_dml_round_trip;
    Alcotest.test_case "DML read-your-writes in one program" `Quick
      test_dml_read_your_writes;
    Alcotest.test_case "insert/delete graph lifecycle" `Quick
      test_dml_graph_lifecycle;
    Alcotest.test_case "DML errors" `Quick test_dml_errors;
    Alcotest.test_case "writes precede a later compile error" `Quick
      test_effects_before_compile_error;
  ]
