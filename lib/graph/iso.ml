let default_compat pattern target u v =
  let lu = Graph.label pattern u in
  lu = "" || lu = Graph.label target v

(* Check that mapping phi, defined on pattern nodes < bound plus the
   candidate (u -> v), preserves the pattern edges incident to u among
   already-mapped nodes. *)
let edges_ok pattern target phi u v =
  Array.for_all
    (fun u' ->
      let v' = phi.(u') in
      v' < 0 || Graph.has_edge target v v')
    (Graph.adj_nbrs pattern u)
  &&
  (not (Graph.directed pattern)
  || Array.for_all
       (fun u' ->
         let v' = phi.(u') in
         v' < 0 || Graph.has_edge target v' v)
       (Graph.in_nbrs pattern u))

let find_embeddings ?compat ?(fixed = []) ?limit ~pattern ~target () =
  let k = Graph.n_nodes pattern and n = Graph.n_nodes target in
  let compat = Option.value compat ~default:(default_compat pattern target) in
  let phi = Array.make k (-1) in
  let used = Array.make n false in
  let results = ref [] in
  let count = ref 0 in
  let ok = ref true in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= k || v < 0 || v >= n then ok := false
      else begin
        phi.(u) <- v;
        if used.(v) then ok := false;
        used.(v) <- true
      end)
    fixed;
  (* verify edges among fixed nodes *)
  if !ok then
    List.iter
      (fun (u, v) ->
        if not (compat u v) then ok := false;
        phi.(u) <- -1;
        (* temporarily unmap to reuse edges_ok, then restore *)
        if not (edges_ok pattern target phi u v) then ok := false;
        phi.(u) <- v)
      fixed;
  let order =
    (* fixed nodes first (already bound), then the rest by descending degree *)
    let fixed_set = List.map fst fixed in
    let rest =
      List.init k (fun i -> i)
      |> List.filter (fun i -> not (List.mem i fixed_set))
      |> List.sort (fun a b -> compare (Graph.degree pattern b) (Graph.degree pattern a))
    in
    Array.of_list rest
  in
  let exception Done in
  let rec go i =
    if i >= Array.length order then begin
      results := Array.copy phi :: !results;
      incr count;
      match limit with Some l when !count >= l -> raise Done | _ -> ()
    end
    else begin
      let u = order.(i) in
      for v = 0 to n - 1 do
        if (not used.(v)) && compat u v && edges_ok pattern target phi u v
        then begin
          phi.(u) <- v;
          used.(v) <- true;
          go (i + 1);
          phi.(u) <- -1;
          used.(v) <- false
        end
      done
    end
  in
  if !ok then (try go 0 with Done -> ());
  List.rev !results

let count_embeddings ?compat ~pattern ~target () =
  List.length (find_embeddings ?compat ~pattern ~target ())

let exists_embedding ?compat ?fixed ~pattern ~target () =
  find_embeddings ?compat ?fixed ~limit:1 ~pattern ~target () <> []

let rooted_sub_iso ~compat ~pattern ~pattern_root ~target ~target_root =
  exists_embedding ~compat
    ~fixed:[ (pattern_root, target_root) ]
    ~pattern ~target ()

let isomorphic g1 g2 =
  Graph.directed g1 = Graph.directed g2
  && Graph.n_nodes g1 = Graph.n_nodes g2
  && Graph.n_edges g1 = Graph.n_edges g2
  &&
  let compat u v = Tuple.equal (Graph.node_tuple g1 u) (Graph.node_tuple g2 v) in
  (* a bijective embedding of g1 into g2 with equal edge counts per pair
     and matching edge tuples *)
  let embeddings = find_embeddings ~compat ~pattern:g1 ~target:g2 () in
  List.exists
    (fun phi ->
      Graph.fold_edges g1 ~init:true ~f:(fun acc _ e ->
          acc
          &&
          let ids = Graph.find_all_edges g2 phi.(e.src) phi.(e.dst) in
          List.exists
            (fun i -> Tuple.equal (Graph.edge g2 i).Graph.etuple e.Graph.etuple)
            ids))
    embeddings
