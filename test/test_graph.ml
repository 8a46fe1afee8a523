open Gql_graph

(* the running example of Figures 4.1/4.16: pattern P = triangle A-B-C,
   graph G with nodes A1 B1 C1 B2 C2 A2 *)
let sample_g () =
  let b = Graph.Builder.create () in
  let a1 = Graph.Builder.add_labeled_node b ~name:"A1" "A" in
  let b1 = Graph.Builder.add_labeled_node b ~name:"B1" "B" in
  let c1 = Graph.Builder.add_labeled_node b ~name:"C1" "C" in
  let b2 = Graph.Builder.add_labeled_node b ~name:"B2" "B" in
  let c2 = Graph.Builder.add_labeled_node b ~name:"C2" "C" in
  let a2 = Graph.Builder.add_labeled_node b ~name:"A2" "A" in
  List.iter
    (fun (u, v) -> ignore (Graph.Builder.add_edge b u v))
    [ (a1, b1); (b1, c1); (b1, c2); (a1, c2); (b2, c2); (a2, b2) ];
  Graph.Builder.build b

let test_counts () =
  let g = sample_g () in
  Alcotest.(check int) "nodes" 6 (Graph.n_nodes g);
  Alcotest.(check int) "edges" 6 (Graph.n_edges g)

let test_adjacency () =
  let g = sample_g () in
  let id n = Option.get (Graph.node_by_name g n) in
  Alcotest.(check int) "deg A1" 2 (Graph.degree g (id "A1"));
  Alcotest.(check int) "deg B1" 3 (Graph.degree g (id "B1"));
  Alcotest.(check int) "deg C1" 1 (Graph.degree g (id "C1"));
  Alcotest.(check int) "deg A2" 1 (Graph.degree g (id "A2"));
  Alcotest.(check bool) "has A1-B1" true (Graph.has_edge g (id "A1") (id "B1"));
  Alcotest.(check bool) "undirected symmetry" true (Graph.has_edge g (id "B1") (id "A1"));
  Alcotest.(check bool) "no A1-A2" false (Graph.has_edge g (id "A1") (id "A2"))

let test_labels () =
  let g = sample_g () in
  let id n = Option.get (Graph.node_by_name g n) in
  Alcotest.(check string) "label A1" "A" (Graph.label g (id "A1"));
  Alcotest.(check string) "label C2" "C" (Graph.label g (id "C2"))

let test_directed () =
  let b = Graph.Builder.create ~directed:true () in
  let x = Graph.Builder.add_labeled_node b "X" in
  let y = Graph.Builder.add_labeled_node b "Y" in
  ignore (Graph.Builder.add_edge b x y);
  let g = Graph.Builder.build b in
  Alcotest.(check bool) "x->y" true (Graph.has_edge g x y);
  Alcotest.(check bool) "y->x absent" false (Graph.has_edge g y x);
  Alcotest.(check int) "out-degree x" 1 (Graph.degree g x);
  Alcotest.(check int) "in-degree y" 1 (Graph.in_degree g y);
  Alcotest.(check int) "out-degree y" 0 (Graph.degree g y)

let test_self_loop () =
  let g = Graph.of_edges ~n:1 [ (0, 0) ] in
  Alcotest.(check bool) "self loop present" true (Graph.has_edge g 0 0);
  Alcotest.(check int) "listed once in adjacency" 1 (Array.length (Graph.neighbors g 0))

let test_parallel_edges () =
  let g = Graph.of_edges ~n:2 [ (0, 1); (0, 1); (1, 0) ] in
  Alcotest.(check int) "three parallel edges" 3 (List.length (Graph.find_all_edges g 0 1))

let test_induced_subgraph () =
  let g = sample_g () in
  let id n = Option.get (Graph.node_by_name g n) in
  let sub, original = Graph.induced_subgraph g [ id "A1"; id "B1"; id "C2" ] in
  Alcotest.(check int) "3 nodes" 3 (Graph.n_nodes sub);
  Alcotest.(check int) "3 edges (the triangle)" 3 (Graph.n_edges sub);
  Alcotest.(check int) "original mapping size" 3 (Array.length original)

let test_disjoint_union () =
  let g1 = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  let g2 = Graph.of_labeled ~labels:[| "C" |] [] in
  let u, r1, r2 = Graph.disjoint_union g1 g2 in
  Alcotest.(check int) "nodes" 3 (Graph.n_nodes u);
  Alcotest.(check int) "edges" 1 (Graph.n_edges u);
  Alcotest.(check string) "left labels kept" "A" (Graph.label u r1.(0));
  Alcotest.(check string) "right labels kept" "C" (Graph.label u r2.(0))

let test_label_histogram () =
  let g = sample_g () in
  let h = Graph.label_histogram g in
  Alcotest.(check int) "A freq" 2 (Hashtbl.find h "A");
  Alcotest.(check int) "B freq" 2 (Hashtbl.find h "B");
  Alcotest.(check int) "C freq" 2 (Hashtbl.find h "C")

let test_edge_label_histogram () =
  let g = sample_g () in
  let h = Graph.edge_label_histogram g in
  Alcotest.(check int) "A-B edges" 2 (Hashtbl.find h ("A", "B"));
  Alcotest.(check int) "B-C edges" 3 (Hashtbl.find h ("B", "C"));
  Alcotest.(check int) "A-C edges" 1 (Hashtbl.find h ("A", "C"))

let test_builder_validation () =
  let b = Graph.Builder.create () in
  ignore (Graph.Builder.add_labeled_node b ~name:"x" "X");
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Graph.Builder.add_node: duplicate node name \"x\"") (fun () ->
      ignore (Graph.Builder.add_labeled_node b ~name:"x" "X"));
  Alcotest.check_raises "edge endpoint range"
    (Invalid_argument "Graph.Builder.add_edge: endpoint out of range") (fun () ->
      ignore (Graph.Builder.add_edge b 0 5))

let test_equal_structure () =
  let g1 = sample_g () and g2 = sample_g () in
  Alcotest.(check bool) "same build equal" true (Graph.equal_structure g1 g2);
  let g3 = Graph.of_labeled ~labels:[| "A"; "B" |] [ (0, 1) ] in
  Alcotest.(check bool) "different not equal" false (Graph.equal_structure g1 g3)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pp_roundtrip_shape () =
  let g = sample_g () in
  let s = Format.asprintf "%a" Graph.pp g in
  Alcotest.(check bool) "mentions node A1" true (contains s "node A1");
  Alcotest.(check bool) "mentions an edge" true (contains s "(A1, B1)")

(* --- the two printers agree ---------------------------------------------- *)

let gen_ident =
  QCheck.Gen.(
    map2
      (fun c s -> String.make 1 c ^ s)
      (char_range 'a' 'z')
      (string_size ~gen:(oneofl [ 'a'; 'k'; 'z'; '0'; '_' ]) (0 -- 80)))

let gen_value =
  let open QCheck.Gen in
  oneof
    [
      return Value.Null;
      map (fun b -> Value.Bool b) bool;
      map (fun i -> Value.Int i) int;
      map (fun f -> Value.Float f) float;
      map
        (fun s -> Value.Str s)
        (string_size
           ~gen:(oneofl [ 'a'; ' '; '"'; '\\'; '\n'; '\t'; '\001'; '\200' ])
           (0 -- 12));
    ]

let gen_tuple =
  let open QCheck.Gen in
  frequency
    [
      (1, return Tuple.empty);
      ( 3,
        map2
          (fun tag attrs -> Tuple.make ?tag attrs)
          (opt gen_ident)
          (list_size (0 -- 4)
             (pair (oneofl [ "label"; "x"; "bond"; "name" ]) gen_value)) );
    ]

(* Names are made unique by their position; some run past the
   formatter's 68-column max indent. *)
let gen_graph =
  let open QCheck.Gen in
  let named i = map (Option.map (fun s -> Printf.sprintf "%s_%d" s i)) (opt gen_ident) in
  bool >>= fun directed ->
  opt gen_ident >>= fun name ->
  gen_tuple >>= fun tuple ->
  (0 -- 6) >>= fun n ->
  flatten_l (List.init n (fun i -> pair (named i) gen_tuple)) >>= fun nodes ->
  (if n = 0 then return []
   else
     list_size (0 -- 8)
       (triple (0 -- (n - 1)) (0 -- (n - 1)) gen_tuple))
  >>= fun edges ->
  flatten_l (List.mapi (fun i _ -> named i) edges) >|= fun edge_names ->
  let b = Graph.Builder.create ~directed ?name ~tuple () in
  List.iter (fun (name, t) -> ignore (Graph.Builder.add_node b ?name t)) nodes;
  List.iter2
    (fun (u, v, tuple) name -> ignore (Graph.Builder.add_edge b ?name ~tuple u v))
    edges edge_names;
  Graph.Builder.build b

let prop_to_string_is_pp =
  QCheck.Test.make ~name:"Graph.to_string = Format rendering of Graph.pp"
    ~count:500
    (QCheck.make gen_graph ~print:Graph.to_string)
    (fun g -> Graph.to_string g = Format.asprintf "%a" Graph.pp g)

let test_text_layout () =
  let b = Graph.Builder.create ~name:"G" ~tuple:(Tuple.make ~tag:"mol" []) () in
  let atom = Tuple.make ~tag:"atom" [ ("label", Value.Str "C") ] in
  let a = Graph.Builder.add_node b ~name:"a" atom in
  let v =
    Graph.Builder.add_node b
      (Tuple.make [ ("w", Value.Float 0.5); ("q", Value.Str "x\"y") ])
  in
  ignore (Graph.Builder.add_edge b ~tuple:(Tuple.make [ ("bond", Value.Int 2) ]) a v);
  ignore (Graph.Builder.add_edge b ~name:"f" v a);
  let expect =
    "graph G <mol> {\n\
    \  node a <atom label=\"C\">;\n\
    \  node v1 <w=0.5 q=\"x\\\"y\">;\n\
    \  edge e0 (a, v1) <bond=2>;\n\
    \  edge f (v1, a);\n\
     }"
  in
  Alcotest.(check string) "to_string" expect (Graph.to_string (Graph.Builder.build b));
  Alcotest.(check string) "empty graph" "graph {\n}"
    (Graph.to_string (Graph.Builder.build (Graph.Builder.create ())))

(* A tuple box opening past Format's max indent (68 columns) used to
   break its declaration in two, leaving a trailing space. *)
let test_long_declaration_one_line () =
  let name = String.make 70 'n' in
  let b = Graph.Builder.create () in
  let atom = Tuple.make ~tag:"atom" [ ("label", Value.Str "C") ] in
  ignore (Graph.Builder.add_node b ~name atom);
  let s = Format.asprintf "%a" Graph.pp (Graph.Builder.build b) in
  Alcotest.(check string) "declaration kept on one line"
    ("graph {\n  node " ^ name ^ " <atom label=\"C\">;\n}")
    s

(* Every construction draws a fresh stamp, so the exec cache's
   identity table can hash it in O(1) without confusing two
   structurally equal graphs. *)
let test_stamps_are_fresh () =
  let g1 = sample_g () and g2 = sample_g () in
  Alcotest.(check bool) "structurally equal" true (Graph.equal_structure g1 g2);
  let renamed = Graph.with_name g1 (Graph.name g1) in
  let mapped = Graph.map_node_tuples g1 ~f:(fun _ t -> t) in
  let stamps = List.map Graph.stamp [ g1; g2; renamed; mapped ] in
  Alcotest.(check int) "build, build, with_name, map_node_tuples: 4 stamps" 4
    (List.length (List.sort_uniq Int.compare stamps));
  Alcotest.(check bool) "a derived graph still equals its source" true
    (Graph.equal_structure g1 renamed && Graph.equal_structure g1 mapped)

let suite =
  [
    Alcotest.test_case "node/edge counts" `Quick test_counts;
    Alcotest.test_case "adjacency and degrees" `Quick test_adjacency;
    Alcotest.test_case "labels" `Quick test_labels;
    Alcotest.test_case "directed graphs" `Quick test_directed;
    Alcotest.test_case "self loops" `Quick test_self_loop;
    Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
    Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
    Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
    Alcotest.test_case "label histogram" `Quick test_label_histogram;
    Alcotest.test_case "edge label histogram" `Quick test_edge_label_histogram;
    Alcotest.test_case "builder validation" `Quick test_builder_validation;
    Alcotest.test_case "structural equality" `Quick test_equal_structure;
    Alcotest.test_case "pretty printing" `Quick test_pp_roundtrip_shape;
    QCheck_alcotest.to_alcotest prop_to_string_is_pp;
    Alcotest.test_case "text layout" `Quick test_text_layout;
    Alcotest.test_case "a long declaration stays on one line" `Quick
      test_long_declaration_one_line;
    Alcotest.test_case "every construction draws a fresh stamp" `Quick
      test_stamps_are_fresh;
  ]
