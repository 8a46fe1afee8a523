open Gql_graph

let assign_labels rng ~n_labels ~zipf_exponent n =
  let z = Zipf.create ~exponent:zipf_exponent n_labels in
  Array.init n (fun _ -> Printf.sprintf "L%d" (Zipf.sample z rng))

let build_labeled labels edges =
  Graph.of_labeled ~labels (List.rev edges)

let erdos_renyi ?(n_labels = 100) ?(zipf_exponent = 1.0) rng ~n ~m =
  if n < 2 && m > 0 then invalid_arg "Synthetic.erdos_renyi: too few nodes";
  let labels = assign_labels rng ~n_labels ~zipf_exponent n in
  let seen = Hashtbl.create (2 * m) in
  let edges = ref [] in
  let count = ref 0 in
  while !count < m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = if u < v then (u, v) else (v, u) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        edges := key :: !edges;
        incr count
      end
    end
  done;
  build_labeled labels !edges

let hub ?(hub_label = "H") ?(leaf_label = "L") ?(mesh_label = "M") rng ~n_hubs
    ~n_leaves ~n_mesh =
  if n_hubs <= 0 then invalid_arg "Synthetic.hub: need at least one hub";
  let n = n_hubs + n_leaves + n_mesh in
  let labels =
    Array.init n (fun i ->
        if i < n_hubs then hub_label
        else if i < n_hubs + n_leaves then leaf_label
        else mesh_label)
  in
  let z = Zipf.create n_hubs in
  let edges = ref [] in
  (* leaves pick their hub Zipf-distributed: rank-0 hubs own most of
     the leaf fan-out, so per-hub selectivity varies wildly around any
     single-number estimate *)
  for l = 0 to n_leaves - 1 do
    edges := (Zipf.sample z rng, n_hubs + l) :: !edges
  done;
  (* every mesh node touches every hub: the hub–mesh γ is exactly 1,
     the worst case for a model that assumes joins reduce *)
  for m = 0 to n_mesh - 1 do
    for h = 0 to n_hubs - 1 do
      edges := (h, n_hubs + n_leaves + m) :: !edges
    done
  done;
  build_labeled labels !edges
