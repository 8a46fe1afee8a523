open Gql_core
open Gql_graph

let decl = Gql.parse_graph_decl

let instantiate ?env src = Template.instantiate ?env (decl src)

let test_fresh_nodes () =
  let g = instantiate {|graph Out { node a <label="X" n=1+2>; node b; edge e (a, b); }|} in
  Alcotest.(check int) "two nodes" 2 (Graph.n_nodes g);
  Alcotest.(check bool) "expression evaluated" true
    (Tuple.get (Graph.node_tuple g 0) "n" = Value.Int 3);
  Alcotest.(check (option string)) "graph name kept" (Some "Out") (Graph.name g)

let matched_param () =
  let g = Test_graph.sample_g () in
  let p =
    Gql.pattern_of_string
      {|graph P { node x where label="A"; node y where label="B"; edge e (x, y); }|}
  in
  let r = Gql_matcher.Engine.run ~exhaustive:false p g in
  let phi = List.hd r.Gql_matcher.Engine.outcome.Gql_matcher.Search.mappings in
  Matched.make p g phi

let test_param_attributes () =
  let m = matched_param () in
  let g =
    instantiate
      ~env:[ ("P", Template.Pmatched m) ]
      {|graph { node out <src=P.x.label dst=P.y.label>; }|}
  in
  Alcotest.(check bool) "src" true (Tuple.get (Graph.node_tuple g 0) "src" = Value.Str "A");
  Alcotest.(check bool) "dst" true (Tuple.get (Graph.node_tuple g 0) "dst" = Value.Str "B")

let test_copy_dedup () =
  let m = matched_param () in
  let g =
    instantiate
      ~env:[ ("P", Template.Pmatched m) ]
      {|graph { node P.x, P.y, P.x; edge e (P.x, P.y); }|}
  in
  Alcotest.(check int) "copying the same node twice yields one" 2 (Graph.n_nodes g);
  Alcotest.(check int) "edge between the copies" 1 (Graph.n_edges g);
  (* the copies carry the data nodes' tuples *)
  let labels = List.sort compare [ Graph.label g 0; Graph.label g 1 ] in
  Alcotest.(check (list string)) "tuples copied" [ "A"; "B" ] labels

let test_include_graph () =
  let c = Graph.of_labeled ~labels:[| "X"; "Y" |] [ (0, 1) ] in
  let g =
    instantiate
      ~env:[ ("C", Template.Pgraph c) ]
      {|graph { graph C; node extra <label="Z">; }|}
  in
  Alcotest.(check int) "included + fresh" 3 (Graph.n_nodes g);
  Alcotest.(check int) "edge kept" 1 (Graph.n_edges g)

let test_unconditional_unify () =
  let g =
    instantiate
      {|graph {
          node a <x=1>;
          node b <y=2>;
          unify a, b;
        }|}
  in
  Alcotest.(check int) "merged" 1 (Graph.n_nodes g);
  Alcotest.(check bool) "tuple union" true
    (Tuple.get (Graph.node_tuple g 0) "x" = Value.Int 1
    && Tuple.get (Graph.node_tuple g 0) "y" = Value.Int 2)

let test_conditional_unify_range () =
  (* unify a fresh node with the node of an included graph carrying the
     same name — the Figure 4.12 mechanism *)
  let b = Graph.Builder.create () in
  ignore (Graph.Builder.add_node b (Tuple.make [ ("name", Value.Str "A") ]));
  ignore (Graph.Builder.add_node b (Tuple.make [ ("name", Value.Str "B") ]));
  let c = Graph.Builder.build b in
  let g =
    instantiate
      ~env:[ ("C", Template.Pgraph c) ]
      {|graph {
          graph C;
          node fresh <name="A" extra=1>;
          unify fresh, C.v where fresh.name = C.v.name;
        }|}
  in
  Alcotest.(check int) "A merged, B kept" 2 (Graph.n_nodes g);
  let merged = ref false in
  Graph.iter_nodes g ~f:(fun v ->
      let t = Graph.node_tuple g v in
      if Tuple.get t "name" = Value.Str "A" then
        merged := Tuple.get t "extra" = Value.Int 1);
  Alcotest.(check bool) "merged node has both attrs" true !merged

let test_conditional_unify_no_match () =
  let b = Graph.Builder.create () in
  ignore (Graph.Builder.add_node b (Tuple.make [ ("name", Value.Str "B") ]));
  let c = Graph.Builder.build b in
  let g =
    instantiate
      ~env:[ ("C", Template.Pgraph c) ]
      {|graph {
          graph C;
          node fresh <name="A">;
          unify fresh, C.v where fresh.name = C.v.name;
        }|}
  in
  Alcotest.(check int) "nothing merged" 2 (Graph.n_nodes g)

let test_template_errors () =
  let fails ?env src =
    match instantiate ?env src with
    | exception Template.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "export rejected" true
    (fails "graph { node a; export a as b; }");
  Alcotest.(check bool) "disjunction rejected" true
    (fails "graph { { node a; } | { node b; }; }");
  Alcotest.(check bool) "unknown copy" true (fails "graph { node P.x; }");
  Alcotest.(check bool) "unknown include" true (fails "graph { graph C; }");
  Alcotest.(check bool) "unresolved attribute" true
    (fails "graph { node a <x=P.v1.name>; }")

let test_duplicate_names_rejected () =
  match instantiate "graph { node a; node a; }" with
  | exception Template.Error _ -> ()
  | _ -> Alcotest.fail "expected duplicate name error"

(* Two equal edge tuples listing their attributes in different orders
   merge once unification joins their endpoints. *)
let test_unify_merges_reordered_tuples () =
  let g =
    instantiate
      {|graph T {
          node a; node b; node c;
          edge e1 (a, c) <x=1, y=2>;
          edge e2 (b, c) <y=2, x=1>;
          unify a, b;
        }|}
  in
  Alcotest.(check int) "nodes" 2 (Graph.n_nodes g);
  Alcotest.(check int) "one merged edge" 1 (Graph.n_edges g);
  Alcotest.(check (option string)) "the first edge is kept" (Some "e1")
    (Graph.edge_name g 0)

let test_compiled_shares_skeleton () =
  let m = matched_param () in
  let t = Template.compile (decl {|graph { node P.x, P.y; edge e (P.x, P.y); }|}) in
  let g1 = t [ ("P", Template.Pmatched m) ] in
  let g2 = t [ ("P", Template.Pmatched m) ] in
  Alcotest.(check string) "same graph" (Graph.to_string g1) (Graph.to_string g2);
  Alcotest.(check bool) "adjacency shared" true
    (Graph.neighbors g1 0 == Graph.neighbors g2 0);
  Alcotest.(check bool) "copied tuple" true
    (Tuple.equal (Graph.node_tuple g1 0) (Graph.node_tuple m.Matched.graph m.Matched.phi.(0)))

(* ---- differential: Template.compile = Template.instantiate ---- *)

(* The data graph behind every parameter: nodes x0.. (so [P.x1] and
   [C.x1] both resolve by name when P is bound to a plain graph) with
   <label w> tuples, a path of edges, and a graph tuple <k=7>. *)
let data_graph n =
  let b = Graph.Builder.create ~name:"D" ~tuple:(Tuple.make [ ("k", Value.Int 7) ]) () in
  for i = 0 to n - 1 do
    ignore
      (Graph.Builder.add_node b ~name:(Printf.sprintf "x%d" i)
         (Tuple.make
            [ ("label", Value.Str (if i mod 2 = 0 then "A" else "B")); ("w", Value.Int i) ]))
  done;
  for i = 0 to n - 2 do
    ignore (Graph.Builder.add_edge b ~tuple:(Tuple.make [ ("b", Value.Int i) ]) i (i + 1))
  done;
  Graph.Builder.build b

(* two pattern objects over the same variables in different orders, so
   a compiled template sees its per-pattern memo switch *)
let patterns =
  lazy
    [|
      Gql.pattern_of_string "graph P { node x0; node x1; node x2; }";
      Gql.pattern_of_string "graph P { node x2; node x0; node x1; }";
    |]

let rand_expr k =
  let open Pred in
  match k mod 24 with
  | 0 | 1 | 2 | 3 -> Lit (Value.Int k)
  | 4 | 5 -> Binop (Add, Lit (Value.Int 1), Lit (Value.Int 2))
  | 6 | 7 -> Lit (Value.Str "s")
  | 8 | 9 | 10 | 11 -> Attr [ "P"; Printf.sprintf "x%d" (k mod 3); "w" ]
  | 12 | 13 -> Binop (Add, Attr [ "P"; "x0"; "label" ], Lit (Value.Str "!"))
  | 14 | 15 -> Attr [ "C"; "k" ]
  | 16 | 17 -> Attr [ "C"; Printf.sprintf "x%d" (k mod 4); "w" ]
  | 18 -> Attr [ "P"; "x3"; "w" ]  (* no such variable: unresolved *)
  | 19 -> Binop (Div, Lit (Value.Int 1), Lit (Value.Int 0))
  | _ -> Binop (Mul, Attr [ "P"; "x1"; "w" ], Lit (Value.Int 3))

let rand_tuple k =
  if k mod 3 = 0 then None
  else
    Some
      {
        Ast.tag = (if k mod 5 = 0 then Some "t" else None);
        fields =
          List.init (1 + (k mod 3)) (fun i ->
              ([| "a"; "b"; "a" |].(i), rand_expr ((k / 3) + (7 * i))));
      }

(* Build a body from raw choices: every edge endpoint is drawn from the
   nodes declared so far (mostly), so most bodies instantiate. Without
   [lits] no tuple literal is written, so the body can take the
   skeleton path. *)
let rand_body ~lits (named, gtup, ops) =
  let rand_tuple k = if lits then rand_tuple k else None in
  let pool = ref [] and n_local = ref 0 and n_edge = ref 0 and included = ref false in
  let pick k = match !pool with [] -> [ "zz" ] | l -> List.nth l (k mod List.length l) in
  let copy_path k =
    match k mod 24 with
    | 18 | 19 | 20 -> [ "C"; Printf.sprintf "x%d" (k mod 6) ]
    | 21 -> [ "R"; "x0" ]  (* unbound parameter *)
    | 22 -> [ "P"; "x3" ]  (* no such variable *)
    | _ -> [ "P"; Printf.sprintf "x%d" (k mod 3) ]
  in
  let node_copy k =
    let path = copy_path k in
    pool := path :: !pool;
    { Ast.n_name = None; n_tuple = None; n_where = None; n_copy = Some path }
  in
  let node_local k =
    let name =
      if k mod 7 = 0 then None
      else if k mod 23 = 1 && !n_local > 0 then Some "l0"  (* duplicate *)
      else begin
        let n = Printf.sprintf "l%d" !n_local in
        incr n_local;
        pool := [ n ] :: !pool;
        Some n
      end
    in
    { Ast.n_name = name; n_tuple = rand_tuple (k / 7); n_where = None; n_copy = None }
  in
  let edge a b c =
    let endpoint k = if k mod 17 = 0 then [ "P"; "x2" ] else pick k in
    let e_name =
      if c mod 4 = 0 then None
      else if c mod 29 = 1 && !n_edge > 0 then Some "e0"  (* duplicate *)
      else Some (Printf.sprintf "e%d" !n_edge)
    in
    incr n_edge;
    {
      Ast.e_name;
      e_src = endpoint a;
      e_dst = endpoint b;
      e_rep = None;
      e_tuple = rand_tuple (c / 4);
      e_where = None;
    }
  in
  let member (kind, a, b, c) =
    match kind mod 20 with
    | 0 when not !included ->
      included := true;
      pool := [ "C"; "x1" ] :: !pool;
      Ast.Graph_refs [ ("C", None) ]
    | 1 -> Ast.Unify ([ pick a; pick b ], None)
    | k when k < 8 -> Ast.Nodes (List.init (1 + (c mod 2)) (fun i -> node_copy (a + i * b)))
    | k when k < 14 -> Ast.Nodes (List.init (1 + (c mod 2)) (fun i -> node_local (b + i * a)))
    | _ -> Ast.Edges (List.init (1 + (a mod 2)) (fun i -> edge (b + i) (c + i) (a + c)))
  in
  {
    Ast.g_name = (if named then Some "T" else None);
    g_tuple = rand_tuple gtup;
    g_members = List.map member ops;
    g_where = None;
  }

type case = {
  body : Ast.graph_decl;
  n : int;  (* data graph size *)
  envs : (int * int * int list) list;  (* env shape, pattern, phi *)
}

let env_of ~data (shape, pat, phi) =
  let m = Matched.make (Lazy.force patterns).(pat) data (Array.of_list phi) in
  match shape mod 8 with
  | 0 -> [ ("C", Template.Pgraph data); ("P", Template.Pmatched m) ]
  | 1 -> [ ("P", Template.Pgraph data); ("C", Template.Pgraph data) ]
  | 2 -> [ ("C", Template.Pgraph data) ]
  | _ -> [ ("P", Template.Pmatched m); ("C", Template.Pgraph data) ]

let gen_case =
  let open QCheck.Gen in
  let op = quad nat nat nat nat in
  int_range 3 6 >>= fun n ->
  (* mostly injective bindings, like Search's; sometimes a collision *)
  let phi =
    bool >>= fun collide ->
    if collide then list_repeat 3 (int_range 0 (n - 1))
    else shuffle_l (List.init n Fun.id) >|= List.filteri (fun i _ -> i < 3)
  in
  map3
    (fun (lits, named, gtup) ops envs ->
      { body = rand_body ~lits (named, gtup, ops); n; envs })
    (triple bool bool nat)
    (list_size (int_range 1 7) op)
    (list_size (int_range 1 5) (triple nat (int_range 0 1) phi))

let print_case c =
  Format.asprintf "%a@.n=%d envs=[%s]" Ast.pp_graph_decl c.body c.n
    (String.concat "; "
       (List.map
          (fun (s, p, phi) ->
            Printf.sprintf "shape %d pattern %d phi [%s]" (s mod 8) p
              (String.concat "," (List.map string_of_int phi)))
          c.envs))

let outcome f =
  match f () with
  | g -> Ok (Graph.to_string g)
  | exception Template.Error m -> Error ("Template.Error: " ^ m)
  | exception e -> Error (Printexc.to_string e)

let prop_compile_equals_instantiate =
  QCheck.Test.make ~name:"compiled template = interpreter (output and errors)"
    ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let data = data_graph c.n in
      let compiled = Template.compile c.body in
      List.for_all
        (fun e ->
          let env = env_of ~data e in
          let want = outcome (fun () -> Template.instantiate ~env c.body) in
          let got = outcome (fun () -> compiled env) in
          want = got
          || QCheck.Test.fail_reportf "interpreter: %s@.compiled: %s"
               (match want with Ok s | Error s -> s)
               (match got with Ok s | Error s -> s))
        c.envs)

let suite =
  [
    Alcotest.test_case "fresh nodes and expressions" `Quick test_fresh_nodes;
    Alcotest.test_case "parameter attribute access" `Quick test_param_attributes;
    Alcotest.test_case "copies dedupe by source" `Quick test_copy_dedup;
    Alcotest.test_case "graph inclusion" `Quick test_include_graph;
    Alcotest.test_case "unconditional unify" `Quick test_unconditional_unify;
    Alcotest.test_case "conditional unify over a range" `Quick
      test_conditional_unify_range;
    Alcotest.test_case "conditional unify without matches" `Quick
      test_conditional_unify_no_match;
    Alcotest.test_case "template-only construct errors" `Quick test_template_errors;
    Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_names_rejected;
    Alcotest.test_case "unify merges edges with reordered equal tuples" `Quick
      test_unify_merges_reordered_tuples;
    Alcotest.test_case "compiled template shares its skeleton" `Quick
      test_compiled_shares_skeleton;
    QCheck_alcotest.to_alcotest prop_compile_equals_instantiate;
  ]
