(* Social-network analytics: selection with a cross-variable predicate
   and parallel matching over a single large graph.

   Run with:  dune exec examples/social.exe
*)

open Gql_core
open Gql_graph

(* a small synthetic social network: people with cities and ages,
   "follows" edges (directed) *)
let network ?(people = 400) () =
  let rng = Gql_datasets.Rng.create 77 in
  let cities = [| "york"; "leeds"; "hull"; "bath" |] in
  let b = Graph.Builder.create ~directed:true ~name:"social" () in
  for i = 0 to people - 1 do
    ignore
      (Graph.Builder.add_node b
         ~name:(Printf.sprintf "u%d" i)
         (Tuple.make ~tag:"person"
            [
              ("label", Value.Str "person");
              ("city", Value.Str (Gql_datasets.Rng.choose rng cities));
              ("age", Value.Int (16 + Gql_datasets.Rng.int rng 60));
            ]))
  done;
  (* preferential follows *)
  let n_edges = people * 6 in
  let seen = Hashtbl.create n_edges in
  let added = ref 0 in
  while !added < n_edges do
    let a = Gql_datasets.Rng.int rng people in
    let c = Gql_datasets.Rng.int rng people in
    let target = min c (Gql_datasets.Rng.int rng people) (* skew to low ids *) in
    if a <> target && not (Hashtbl.mem seen (a, target)) then begin
      Hashtbl.add seen (a, target) ();
      ignore (Graph.Builder.add_edge b a target);
      incr added
    end
  done;
  Graph.Builder.build b

let () =
  let g = network () in
  Format.printf "Social network: %d people, %d follows@." (Graph.n_nodes g)
    (Graph.n_edges g);

  (* mutual follows between different cities *)
  let mutual =
    Gql.find_matches
      ~pattern:
        {|graph P {
            node a <person>; node b <person>;
            edge e1 (a, b); edge e2 (b, a);
          } where P.a.city != P.b.city|}
      g
  in
  Format.printf "Cross-city mutual follows (ordered pairs): %d@." (List.length mutual);

  (* parallel matching of a directed triangle (a follows b follows c
     follows a) across domains *)
  let triangle =
    Gql.pattern_of_string
      {|graph T {
          node a <person>; node b <person>; node c <person>;
          edge e1 (a, b); edge e2 (b, c); edge e3 (c, a);
        }|}
  in
  let t0 = Unix.gettimeofday () in
  let seq = Gql_matcher.Engine.count_matches triangle g in
  let t_seq = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let par =
    Gql_matcher.Engine.count_matches
      ~strategy:{ Gql_matcher.Engine.optimized with search_domains = 4 }
      triangle g
  in
  let t_par = Unix.gettimeofday () -. t0 in
  Format.printf
    "@.Follow-triangles: %d (sequential %.1f ms, 4 domains %.1f ms on %d core(s))@."
    seq (1000.0 *. t_seq) (1000.0 *. t_par)
    (Domain.recommended_domain_count ());
  assert (seq = par)
