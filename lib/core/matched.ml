open Gql_graph
module Flat_pattern = Gql_matcher.Flat_pattern

type t = {
  pattern : Flat_pattern.t;
  graph : Graph.t;
  phi : int array;
}

let make pattern graph phi = { pattern; graph; phi }

let var_index pattern name =
  let k = Flat_pattern.size pattern in
  let rec go u =
    if u >= k then None
    else if Flat_pattern.var_name pattern u = name then Some u
    else go (u + 1)
  in
  go 0

let node m name = Option.map (fun u -> m.phi.(u)) (var_index m.pattern name)
let node_tuple m name = Option.map (Graph.node_tuple m.graph) (node m name)

let edge m name =
  let pg = m.pattern.Flat_pattern.structure in
  match Graph.edge_by_name pg name with
  | None -> None
  | Some pe ->
    let e = Graph.edge pg pe in
    Graph.find_edge m.graph m.phi.(e.Graph.src) m.phi.(e.Graph.dst)

let env m =
  let pg = m.pattern.Flat_pattern.structure in
  let node_bindings =
    List.init (Flat_pattern.size m.pattern) (fun u ->
        ( Flat_pattern.var_name m.pattern u,
          Pred.env_of_tuple (Graph.node_tuple m.graph m.phi.(u)) ))
  in
  let edge_bindings =
    List.init (Graph.n_edges pg) (fun pe ->
        let name =
          match Graph.edge_name pg pe with
          | Some n -> n
          | None -> Printf.sprintf "e%d" pe
        in
        let e = Graph.edge pg pe in
        let env =
          match Graph.find_edge m.graph m.phi.(e.Graph.src) m.phi.(e.Graph.dst) with
          | Some ge -> Pred.env_of_tuple (Graph.edge m.graph ge).Graph.etuple
          | None -> fun _ -> None
        in
        (name, env))
  in
  let bindings = node_bindings @ edge_bindings in
  let fallback = Pred.env_of_tuple (Graph.tuple m.graph) in
  (* pattern variables from nested motifs carry dotted names ("R.het"),
     so resolve the longest dotted prefix of the path as a variable *)
  fun path ->
    let n = List.length path in
    let rec try_len l =
      if l = 0 then fallback path
      else begin
        let prefix = List.filteri (fun i _ -> i < l) path in
        let rest = List.filteri (fun i _ -> i >= l) path in
        match List.assoc_opt (String.concat "." prefix) bindings with
        | Some env ->
          (match rest with
          | [] -> Some Value.Null  (* bare element reference *)
          | _ -> env rest)
        | None -> try_len (l - 1)
      end
    in
    try_len n

let to_graph m =
  let pg = m.pattern.Flat_pattern.structure in
  let b =
    Graph.Builder.create ~directed:(Graph.directed m.graph)
      ?name:(Graph.name pg) ~tuple:(Graph.tuple m.graph) ()
  in
  let ids =
    Array.init (Flat_pattern.size m.pattern) (fun u ->
        Graph.Builder.add_node b
          ~name:(Flat_pattern.var_name m.pattern u)
          (Graph.node_tuple m.graph m.phi.(u)))
  in
  Graph.iter_edges pg ~f:(fun pe e ->
      let tuple =
        match Graph.find_edge m.graph m.phi.(e.Graph.src) m.phi.(e.Graph.dst) with
        | Some ge -> (Graph.edge m.graph ge).Graph.etuple
        | None -> Tuple.empty
      in
      ignore
        (Graph.Builder.add_edge b
           ?name:(Graph.edge_name pg pe)
           ~tuple ids.(e.Graph.src) ids.(e.Graph.dst)));
  Graph.Builder.build b

let same_binding a b = a.phi = b.phi && a.graph == b.graph
