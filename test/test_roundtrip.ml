(* Cross-cutting laws: the textual format round-trips, and the three
   independent matching implementations (optimized matcher, SQL plan,
   Datalog translation) agree on random inputs. *)

open Gql_core
open Gql_graph

let prop_text_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip preserves structure" ~count:100
    (QCheck.make
       (Test_matcher.gen_labeled_graph ~max_n:8)
       ~print:(fun g -> Format.asprintf "%a" Graph.pp g))
    (fun g ->
      let text = Format.asprintf "%a" Graph.pp g in
      let g' = Gql.graph_of_string text in
      Graph.equal_structure g g')

let prop_roundtrip_with_attributes =
  QCheck.Test.make ~name:"round-trip keeps node attributes" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair (Test_matcher.gen_labeled_graph ~max_n:6) (int_range 0 1000)))
    (fun (g, salt) ->
      let g =
        Graph.map_node_tuples g ~f:(fun v t ->
            Tuple.set (Tuple.set t "idx" (Value.Int (v + salt))) "note"
              (Value.Str (Printf.sprintf "n-%d" v)))
      in
      let g' = Gql.graph_of_string (Format.asprintf "%a" Graph.pp g) in
      Graph.equal_structure g g')

(* Graphs the text format can express: some nodes and edges named,
   the rest printed under their positional names (v3, e7), which
   reparse as ordinary names; tagged and untagged tuples; parallel
   edges and self-loops. *)
let gen_named_graph =
  QCheck.Gen.(
    let value =
      oneof
        [
          map (fun i -> Value.Int i) (int_range (-1000) 1000);
          map (fun b -> Value.Bool b) bool;
          map
            (fun s -> Value.Str s)
            (string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '\n'; '\t' ])
               (int_range 0 6));
        ]
    in
    let tuple =
      map2
        (fun tag attrs ->
          Tuple.make ?tag (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) attrs))
        (opt (oneofl [ "protein"; "atom" ]))
        (list_size (int_range 0 3) value)
    in
    int_range 1 300 >>= fun n ->
    list_repeat n (pair bool tuple) >>= fun nodes ->
    list_size (int_range 0 (2 * n))
      (quad (int_range 0 (n - 1)) (int_range 0 (n - 1)) bool tuple)
    >>= fun edges ->
    pair (opt (return "g")) tuple >>= fun (gname, gtuple) ->
    let name named prefix i =
      if named then Some (Printf.sprintf "%s%d" prefix i) else None
    in
    let b = Graph.Builder.create ?name:gname ~tuple:gtuple () in
    List.iteri
      (fun i (named, t) ->
        ignore (Graph.Builder.add_node b ?name:(name named "n" i) t))
      nodes;
    List.iteri
      (fun i (u, v, named, t) ->
        ignore (Graph.Builder.add_edge b ?name:(name named "r" i) ~tuple:t u v))
      edges;
    return (Graph.Builder.build b))

let prop_text_roundtrip_exact =
  QCheck.Test.make ~name:"text round-trip is byte-identical (named, <= 300 nodes)"
    ~count:100
    (QCheck.make gen_named_graph ~print:Graph.to_string)
    (fun g ->
      let text = Graph.to_string g in
      Graph.to_string (Gql.graph_of_string text) = text)

let prop_three_engines_agree =
  QCheck.Test.make
    ~name:"matcher = SQL plan = Datalog translation on random graphs" ~count:40
    (QCheck.make
       QCheck.Gen.(
         pair (Test_matcher.gen_labeled_graph ~max_n:7)
           (Test_matcher.gen_labeled_graph ~max_n:3)))
    (fun (g, pg) ->
      let p = Gql_matcher.Flat_pattern.of_graph pg in
      let matcher = Gql_matcher.Engine.count_matches p g in
      let sql, complete =
        Gql_sqlsim.Graphplan.count_matches (Gql_sqlsim.Graphplan.db_of_graph g) p
      in
      let datalog = Gql_datalog.Translate.count_matches g p in
      complete && matcher = sql && matcher = datalog)

let prop_select_first_subset_of_exhaustive =
  QCheck.Test.make ~name:"non-exhaustive selection is a sub-multiset" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair (Test_matcher.gen_labeled_graph ~max_n:7)
           (Test_matcher.gen_labeled_graph ~max_n:3)))
    (fun (g, pg) ->
      let p = Gql_matcher.Flat_pattern.of_graph pg in
      let all = Algebra.select ~patterns:[ p ] [ Algebra.G g ] in
      let one = Algebra.select ~exhaustive:false ~patterns:[ p ] [ Algebra.G g ] in
      List.length one <= 1
      && (all = [] || List.length one = 1)
      && List.length one <= List.length all)

let prop_refined_subset_of_initial =
  QCheck.Test.make ~name:"refinement only shrinks candidate sets" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair (Test_matcher.gen_labeled_graph ~max_n:8)
           (Test_matcher.gen_labeled_graph ~max_n:4)))
    (fun (g, pg) ->
      let p = Gql_matcher.Flat_pattern.of_graph pg in
      let space = Gql_matcher.Feasible.compute ~retrieval:`Node_attrs p g in
      let refined, _ = Gql_matcher.Refine.refine p g space in
      Array.for_all2
        (fun r s -> Array.for_all (fun v -> Array.mem v s) r)
        refined.Gql_matcher.Feasible.candidates space.Gql_matcher.Feasible.candidates)

let prop_btree_height_logarithmic =
  QCheck.Test.make ~name:"btree height stays logarithmic" ~count:30
    QCheck.(int_range 100 2000)
    (fun n ->
      let module T = Gql_index.Btree.Make (Int) in
      let t = ref (T.empty ~degree:8 ()) in
      for i = 0 to n - 1 do
        t := T.add i i !t
      done;
      (* with degree 8 every node holds >= 7 keys below the root *)
      T.height !t <= 2 + int_of_float (Float.log (float_of_int n) /. Float.log 8.0))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_text_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_with_attributes;
    QCheck_alcotest.to_alcotest prop_text_roundtrip_exact;
    QCheck_alcotest.to_alcotest prop_three_engines_agree;
    QCheck_alcotest.to_alcotest prop_select_first_subset_of_exhaustive;
    QCheck_alcotest.to_alcotest prop_refined_subset_of_initial;
    QCheck_alcotest.to_alcotest prop_btree_height_logarithmic;
  ]
