(* Point mutations over immutable graphs.

   Appends and tuple replacements are copy-on-write extensions of the
   frozen CSR graph ({!Graph.add_node}, {!Graph.add_edge},
   {!Graph.set_edge_tuple}, {!Graph.map_node_tuples}): ids do not move,
   so only the touched rows are new. Deletions renumber ids densely and
   rebuild through the builder, keeping the survivors in their order.
   What this module adds over "change the graph by hand" is the
   [delta]: the removed node ids (which fix the renumbering) and,
   crucially, the *dirty set* — the nodes whose
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
  removed : int array;
  dirty : int array;
}

(* [removed] is sorted, so the survivors' new ids are their old ids
   less the removed ids below them *)
let renumber d u =
  let lo = ref 0 and hi = ref (Array.length d.removed) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if d.removed.(mid) < u then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length d.removed && d.removed.(!lo) = u then -1 else u - !lo

(* the new ids of [vs], less the removed ones *)
let carry d vs =
  List.filter_map
    (fun v ->
      let v' = renumber d v in
      if v' >= 0 then Some v' else None)
    vs

let err fmt = Format.kasprintf invalid_arg fmt

let check_node g v =
  if v < 0 || v >= Graph.n_nodes g then err "Mutate: node %d out of range" v

let check_edge g e =
  if e < 0 || e >= Graph.n_edges g then err "Mutate: edge %d out of range" e

let ball g v ~r = Neighborhood.nodes_within g v ~r
let sorted_dedup l = Array.of_list (List.sort_uniq compare l)

(* Copy [g] into a fresh builder, minus [d]'s removed nodes (and their
   edges) and a dropped edge; the survivors keep their order. *)
let rebuild ?(drop_edge = -1) g d =
  let b =
    Graph.Builder.create ~directed:(Graph.directed g) ?name:(Graph.name g)
      ~tuple:(Graph.tuple g) ()
  in
  for v = 0 to Graph.n_nodes g - 1 do
    if renumber d v >= 0 then
      ignore
        (Graph.Builder.add_node b ?name:(Graph.node_name g v)
           (Graph.node_tuple g v))
  done;
  for e = 0 to Graph.n_edges g - 1 do
    let { Graph.src; dst; etuple } = Graph.edge g e in
    let src = renumber d src and dst = renumber d dst in
    if e <> drop_edge && src >= 0 && dst >= 0 then
      ignore
        (Graph.Builder.add_edge b ?name:(Graph.edge_name g e) ~tuple:etuple
           src dst)
  done;
  Graph.Builder.build b

let apply ?(r = 1) g op =
  if r < 0 then err "Mutate: negative radius";
  let delta dirty = { d_r = r; removed = [||]; dirty = sorted_dedup dirty } in
  match op with
  | Add_node { name; tuple } ->
    let g', id = Graph.add_node g ?name tuple in
    (g', delta [ id ])
  | Add_edge { name; src; dst; tuple } ->
    check_node g src;
    check_node g dst;
    let g', _ = Graph.add_edge g ?name ~tuple src dst in
    (g', delta (ball g' src ~r @ ball g' dst ~r))
  | Set_node { v; tuple } ->
    check_node g v;
    let g' = Graph.map_node_tuples g ~f:(fun u t -> if u = v then tuple else t) in
    (g', delta (ball g' v ~r))
  | Set_edge { e; tuple } ->
    check_edge g e;
    let { Graph.src; dst; _ } = Graph.edge g e in
    (Graph.set_edge_tuple g e tuple, delta (ball g src ~r @ ball g dst ~r))
  | Del_node v ->
    check_node g v;
    let d = { d_r = r; removed = [| v |]; dirty = [||] } in
    (* the old r-ball of [v], less [v], in the new numbering *)
    let dirty = sorted_dedup (carry d (ball g v ~r)) in
    (rebuild g d, { d with dirty })
  | Del_edge e ->
    check_edge g e;
    let { Graph.src; dst; _ } = Graph.edge g e in
    let d = delta (ball g src ~r @ ball g dst ~r) in
    (rebuild ~drop_edge:e g d, d)

(* The old id of the [c]-th survivor, given the ascending removed old
   ids: step over every one at or below the candidate. *)
let old_id removed c =
  List.fold_left (fun u x -> if x <= u then u + 1 else u) c removed

let fold_ops ~r g ops =
  let n = Graph.n_nodes g in
  (* [removed] holds the batch's removed old ids, ascending *)
  let g', removed, dirty =
    List.fold_left
      (fun (g, removed, dirty) op ->
        let g', d = apply ~r g op in
        (* a node appended by the batch has no old id: its old id
           would be past the original nodes *)
        let removed =
          match op with
          | Del_node v when old_id removed v < n ->
            List.merge compare removed [ old_id removed v ]
          | _ -> removed
        in
        (* the accumulated dirty set, carried through this op's
           renumbering, and the op's own *)
        let dirty =
          List.sort_uniq compare (Array.to_list d.dirty @ carry d dirty)
        in
        (g', removed, dirty))
      (g, [], []) ops
  in
  let removed = Array.of_list removed and dirty = Array.of_list dirty in
  (g', { d_r = r; removed; dirty })

(* a DML statement is one op: its delta needs no composing *)
let apply_all ?(r = 1) g = function
  | [ op ] -> apply ~r g op
  | ops -> fold_ops ~r g ops
