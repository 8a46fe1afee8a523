(* Point mutations over immutable graphs.

   Graphs are frozen CSR structures, so every operation rebuilds; what
   this module adds over "rebuild by hand" is the [delta]: the id
   renumbering and, crucially, the *dirty set* — the nodes whose
   radius-r neighborhood (and hence profile, §4.2) may have changed.
   The dirty set is what makes index maintenance incremental: a write
   that touches one corner of a large graph recomputes only the
   profiles inside its r-hop blast radius.

   Soundness of the dirty sets (node w's r-ball changed ⇒ w dirty):
   - add edge (u,v): w gains ball members only via a path through the
     new edge, so dist_new(w,u) ≤ r-1 or dist_new(w,v) ≤ r-1 — w lies
     inside the r-ball of u or v in the NEW graph.
   - delete edge (u,v): symmetric, in the OLD graph.
   - set node v: only balls containing v see the new label — exactly
     the r-ball of v (same structure before and after).
   - delete node v: w's ball changed ⇒ v or a node reachable only
     through v was in it ⇒ dist_old(w,v) ≤ r — w is in v's OLD r-ball.
   - add node: no edges yet, only its own (singleton) ball is new.
   Multi-op batches compose per-op dirty sets, mapping the accumulated
   set forward through each op's renumbering. *)

type op =
  | Add_node of { name : string option; tuple : Tuple.t }
  | Add_edge of { name : string option; src : int; dst : int; tuple : Tuple.t }
  | Set_node of { v : int; tuple : Tuple.t }
  | Set_edge of { e : int; tuple : Tuple.t }
  | Del_node of int
  | Del_edge of int

type delta = {
  d_r : int;
  node_map : int array;
  edge_map : int array;
  dirty : int array;
}

let err fmt = Format.kasprintf invalid_arg fmt

let check_node g v =
  if v < 0 || v >= Graph.n_nodes g then err "Mutate: node %d out of range" v

let check_edge g e =
  if e < 0 || e >= Graph.n_edges g then err "Mutate: edge %d out of range" e

let ball g v ~r = Neighborhood.nodes_within g v ~r

let sorted_dedup l =
  let a = Array.of_list (List.sort_uniq compare l) in
  a

(* Copy [g] into a fresh builder, minus a dropped node/edge, with a
   tuple override; returns the builder plus the old→new id maps. *)
let rebuild ?drop_node ?drop_edge ?set_edge g =
  let n = Graph.n_nodes g and m = Graph.n_edges g in
  let b =
    Graph.Builder.create ~directed:(Graph.directed g) ?name:(Graph.name g)
      ~tuple:(Graph.tuple g) ()
  in
  let node_map = Array.make n (-1) in
  for v = 0 to n - 1 do
    if drop_node <> Some v then
      node_map.(v) <-
        Graph.Builder.add_node b ?name:(Graph.node_name g v)
          (Graph.node_tuple g v)
  done;
  let edge_map = Array.make m (-1) in
  for e = 0 to m - 1 do
    let { Graph.src; dst; etuple } = Graph.edge g e in
    if drop_edge <> Some e && node_map.(src) >= 0 && node_map.(dst) >= 0 then begin
      let etuple =
        match set_edge with Some (e', t) when e' = e -> t | _ -> etuple
      in
      edge_map.(e) <-
        Graph.Builder.add_edge b ?name:(Graph.edge_name g e) ~tuple:etuple
          node_map.(src) node_map.(dst)
    end
  done;
  (b, node_map, edge_map)

let apply ?(r = 1) g op =
  if r < 0 then err "Mutate: negative radius";
  let n = Graph.n_nodes g and m = Graph.n_edges g in
  let identity k = Array.init k Fun.id in
  match op with
  | Add_node { name; tuple } ->
    let b, node_map, edge_map = rebuild g in
    let id = Graph.Builder.add_node b ?name tuple in
    (Graph.Builder.build b, { d_r = r; node_map; edge_map; dirty = [| id |] })
  | Add_edge { name; src; dst; tuple } ->
    check_node g src;
    check_node g dst;
    let b, node_map, edge_map = rebuild g in
    ignore (Graph.Builder.add_edge b ?name ~tuple src dst);
    let g' = Graph.Builder.build b in
    let dirty = sorted_dedup (ball g' src ~r @ ball g' dst ~r) in
    (g', { d_r = r; node_map; edge_map; dirty })
  | Set_node { v; tuple } ->
    check_node g v;
    let g' = Graph.map_node_tuples g ~f:(fun u t -> if u = v then tuple else t) in
    ( g',
      {
        d_r = r;
        node_map = identity n;
        edge_map = identity m;
        dirty = sorted_dedup (ball g' v ~r);
      } )
  | Set_edge { e; tuple } ->
    check_edge g e;
    let b, node_map, edge_map = rebuild ~set_edge:(e, tuple) g in
    let { Graph.src; dst; _ } = Graph.edge g e in
    ( Graph.Builder.build b,
      {
        d_r = r;
        node_map;
        edge_map;
        dirty = sorted_dedup (ball g src ~r @ ball g dst ~r);
      } )
  | Del_node v ->
    check_node g v;
    let dirty_old = List.filter (fun u -> u <> v) (ball g v ~r) in
    let b, node_map, edge_map = rebuild ~drop_node:v g in
    ( Graph.Builder.build b,
      {
        d_r = r;
        node_map;
        edge_map;
        dirty = sorted_dedup (List.map (fun u -> node_map.(u)) dirty_old);
      } )
  | Del_edge e ->
    check_edge g e;
    let { Graph.src; dst; _ } = Graph.edge g e in
    let dirty_old = ball g src ~r @ ball g dst ~r in
    let b, node_map, edge_map = rebuild ~drop_edge:e g in
    ( Graph.Builder.build b,
      { d_r = r; node_map; edge_map; dirty = sorted_dedup dirty_old } )

(* [outer] maps mid→new, [inner] maps orig→mid: the composition maps
   orig→new, dropping through any -1. *)
let compose outer inner =
  Array.map (fun i -> if i < 0 then -1 else outer.(i)) inner

let apply_all ?(r = 1) g ops =
  let node_map = ref (Array.init (Graph.n_nodes g) Fun.id) in
  let edge_map = ref (Array.init (Graph.n_edges g) Fun.id) in
  let dirty = Hashtbl.create 16 in
  let g' =
    List.fold_left
      (fun g op ->
        let g', d = apply ~r g op in
        (* carry forward the accumulated dirty set through this op's
           renumbering, then add the op's own *)
        let carried =
          Hashtbl.fold
            (fun v () acc ->
              let v' = d.node_map.(v) in
              if v' >= 0 then v' :: acc else acc)
            dirty []
        in
        Hashtbl.reset dirty;
        List.iter (fun v -> Hashtbl.replace dirty v ()) carried;
        Array.iter (fun v -> Hashtbl.replace dirty v ()) d.dirty;
        node_map := compose d.node_map !node_map;
        edge_map := compose d.edge_map !edge_map;
        g')
      g ops
  in
  let dirty = Hashtbl.fold (fun v () acc -> v :: acc) dirty [] in
  ( g',
    {
      d_r = r;
      node_map = !node_map;
      edge_map = !edge_map;
      dirty = sorted_dedup dirty;
    } )
