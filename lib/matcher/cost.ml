open Gql_graph

type stats = {
  n_nodes : int;
  label_freq : (string, int) Hashtbl.t;
  edge_freq : (string * string, int) Hashtbl.t;
  directed : bool;
}

let stats_of_graph g =
  {
    n_nodes = Graph.n_nodes g;
    label_freq = Graph.label_histogram g;
    edge_freq = Graph.edge_label_histogram g;
    directed = Graph.directed g;
  }

let default_constant = 0.5

let label_frequency stats = function
  | None -> float_of_int stats.n_nodes  (* unconstrained node: any label *)
  | Some l ->
    float_of_int (Option.value (Hashtbl.find_opt stats.label_freq l) ~default:0)

let edge_probability stats la lb =
  match la, lb with
  | Some a, Some b ->
    let key = if stats.directed || a <= b then (a, b) else (b, a) in
    let fe =
      float_of_int (Option.value (Hashtbl.find_opt stats.edge_freq key) ~default:0)
    in
    let fa = label_frequency stats (Some a) and fb = label_frequency stats (Some b) in
    if fa = 0.0 || fb = 0.0 then 0.0 else min 1.0 (fe /. (fa *. fb))
  | _ -> default_constant

type model =
  | Constant of float
  | Frequencies of stats
  | Learned of { learned : Stats.t; fallback : stats option }
  | Edge_gamma of { base : model; overrides : float array }

(* The factor of one pattern edge [e] joining node [u] into a set
   already containing [u']. [u] first: the Frequencies key convention
   is (label of the joining node, label of the in-set node). *)
let rec edge_factor model p ~u ~u' e =
  match model with
  | Constant c -> c
  | Frequencies stats ->
    edge_probability stats
      (Flat_pattern.required_label p u)
      (Flat_pattern.required_label p u')
  | Learned { learned; fallback } -> (
    let la = Flat_pattern.required_label p u in
    let lb = Flat_pattern.required_label p u' in
    match Stats.gamma learned la lb with
    | Some g -> g
    | None -> (
      match fallback with
      | Some stats -> edge_probability stats la lb
      | None -> default_constant))
  | Edge_gamma { base; overrides } ->
    if e >= 0 && e < Array.length overrides && overrides.(e) >= 0.0 then
      overrides.(e)
    else edge_factor base p ~u ~u' e

(* γ of joining node [u] into the set [in_set]: product over the pattern
   edges between u and in_set *)
let join_gamma model p ~in_set u =
  let g = p.Flat_pattern.structure in
  let acc = ref 1.0 in
  Graph.iter_incident g u ~f:(fun u' e ->
      if in_set.(u') then acc := !acc *. edge_factor model p ~u ~u' e);
  !acc

let fold_order model p ~sizes order ~f ~init =
  let k = Flat_pattern.size p in
  let in_set = Array.make k false in
  let acc = ref init in
  let size = ref 1.0 in
  Array.iteri
    (fun i u ->
      let su = float_of_int sizes.(u) in
      if i = 0 then size := su
      else begin
        let cost = !size *. su in
        let gamma = join_gamma model p ~in_set u in
        acc := f !acc ~cost;
        size := !size *. su *. gamma
      end;
      in_set.(u) <- true)
    order;
  (!acc, !size)

let order_cost model p ~sizes order =
  fst (fold_order model p ~sizes order ~init:0.0 ~f:(fun acc ~cost -> acc +. cost))

(* est.(i) = estimated number of partial mappings alive after order
   position i — the "estimated" column the adaptive search and
   [explain --analyze] compare the observed descent counts against. *)
let position_estimates model p ~sizes order =
  let k = Array.length order in
  let est = Array.make k 0.0 in
  let in_set = Array.make (Flat_pattern.size p) false in
  let size = ref 1.0 in
  Array.iteri
    (fun i u ->
      let su = float_of_int sizes.(u) in
      if i = 0 then size := su
      else size := !size *. su *. join_gamma model p ~in_set u;
      est.(i) <- !size;
      in_set.(u) <- true)
    order;
  est
