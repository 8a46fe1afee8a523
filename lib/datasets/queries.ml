open Gql_graph

let clique ?weights rng ~labels ~size =
  let pool = Array.of_list labels in
  let pick =
    match weights with
    | None -> fun () -> Rng.choose rng pool
    | Some ws ->
      let ws = Array.of_list ws in
      if Array.length ws <> Array.length pool then
        invalid_arg "Queries.clique: weights/labels arity mismatch";
      let total = Array.fold_left ( +. ) 0.0 ws in
      fun () ->
        let u = Rng.float rng total in
        let acc = ref 0.0 and chosen = ref pool.(Array.length pool - 1) in
        (try
           Array.iteri
             (fun i w ->
               acc := !acc +. w;
               if u < !acc then begin
                 chosen := pool.(i);
                 raise Exit
               end)
             ws
         with Exit -> ());
        !chosen
  in
  Gql_matcher.Flat_pattern.clique (List.init size (fun _ -> pick ()))

let label_weights idx labels =
  List.map (fun l -> float_of_int (Gql_index.Label_index.frequency idx l)) labels

let top_labels idx k = Gql_index.Label_index.top_frequent idx k

let connected_subgraph rng g ~size =
  let n = Graph.n_nodes g in
  if n < size then invalid_arg "Queries.connected_subgraph: graph too small";
  let attempt () =
    let start = Rng.int rng n in
    let chosen = Hashtbl.create size in
    Hashtbl.add chosen start ();
    (* keep the discovery order: every node after the first is adjacent
       to an earlier one, so the pattern's input order has no
       disconnected prefix — as a hand-extracted query's would not *)
    let order = ref [ start ] in
    let ok = ref true in
    while Hashtbl.length chosen < size && !ok do
      let candidates =
        List.concat_map
          (fun v ->
            Array.to_list (Graph.adj_nbrs g v)
            |> List.filter (fun w -> not (Hashtbl.mem chosen w)))
          !order
      in
      match candidates with
      | [] -> ok := false
      | _ ->
        let next = Rng.choose rng (Array.of_list candidates) in
        Hashtbl.add chosen next ();
        order := next :: !order
    done;
    if !ok then Some (List.rev !order) else None
  in
  let rec retry k =
    if k = 0 then
      invalid_arg "Queries.connected_subgraph: could not find a component that large"
    else
      match attempt () with
      | Some nodes ->
        let index_of = Hashtbl.create size in
        List.iteri (fun i v -> Hashtbl.add index_of v i) nodes;
        let labels = Array.of_list (List.map (Graph.label g) nodes) in
        let edges = ref [] in
        List.iter
          (fun v ->
            let i = Hashtbl.find index_of v in
            Array.iter
              (fun w ->
                match Hashtbl.find_opt index_of w with
                | Some j when i < j -> edges := (i, j) :: !edges
                | _ -> ())
              (Graph.adj_nbrs g v))
          nodes;
        Gql_matcher.Flat_pattern.of_graph
          (Graph.of_labeled ~labels (List.sort_uniq compare !edges))
      | None -> retry (k - 1)
  in
  retry 100

type group = Low_hits | High_hits

let classify ?(threshold = 100) ~n_answers () =
  if n_answers < threshold then Low_hits else High_hits
