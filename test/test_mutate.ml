(* Point mutations ([Mutate]) and incremental index maintenance: op
   semantics, renumbering/dirty-set bookkeeping, dirty-set soundness against
   recomputed profiles, and QCheck equivalence of [Label_index.update] /
   [Profile_index.update] against the full-rebuild oracle over random
   mutation sequences. *)

open Gql_graph
module LI = Gql_index.Label_index
module PI = Gql_index.Profile_index

let lbl s = Tuple.make [ ("label", Value.Str s) ]
let path3 () = Graph.of_labeled ~labels:[| "A"; "B"; "C" |] [ (0, 1); (1, 2) ]
let mem x arr = Array.exists (( = ) x) arr

(* [Mutate.renumber] over every node of an [n]-node pre-state *)
let renumbering d n = Array.init n (Mutate.renumber d)

let test_add_node () =
  let g = path3 () in
  let g', d = Mutate.apply g (Mutate.Add_node { name = Some "x"; tuple = lbl "D" }) in
  Alcotest.(check int) "node appended" 4 (Graph.n_nodes g');
  Alcotest.(check string) "label set" "D" (Graph.label g' 3);
  Alcotest.(check (option int)) "named" (Some 3) (Graph.node_by_name g' "x");
  Alcotest.(check (array int)) "node map is identity" [| 0; 1; 2 |]
    (renumbering d 3);
  Alcotest.(check (array int)) "only the new node is dirty" [| 3 |] d.Mutate.dirty;
  Alcotest.(check int) "edges untouched" 2 (Graph.n_edges g')

let test_add_edge () =
  let g = path3 () in
  let g', d =
    Mutate.apply g
      (Mutate.Add_edge { name = None; src = 0; dst = 2; tuple = Tuple.empty })
  in
  Alcotest.(check int) "edge appended" 3 (Graph.n_edges g');
  Alcotest.(check int) "nodes untouched" 3 (Graph.n_nodes g');
  Alcotest.(check bool) "src endpoint dirty" true (mem 0 d.Mutate.dirty);
  Alcotest.(check bool) "dst endpoint dirty" true (mem 2 d.Mutate.dirty)

let test_set_node () =
  let g = path3 () in
  let g', d = Mutate.apply g (Mutate.Set_node { v = 1; tuple = lbl "X" }) in
  Alcotest.(check string) "label replaced" "X" (Graph.label g' 1);
  Alcotest.(check int) "structure untouched" 2 (Graph.n_edges g');
  (* relabeling 1 changes the radius-1 profile of its whole ball *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d dirty" v)
        true (mem v d.Mutate.dirty))
    [ 0; 1; 2 ]

let test_del_edge () =
  let g = path3 () in
  let g', d = Mutate.apply g (Mutate.Del_edge 0) in
  Alcotest.(check int) "edge removed" 1 (Graph.n_edges g');
  Alcotest.(check (array int)) "no node renumbered" [| 0; 1; 2 |]
    (renumbering d 3)

let test_del_node () =
  let g = path3 () in
  let g', d = Mutate.apply g (Mutate.Del_node 1) in
  Alcotest.(check int) "node removed" 2 (Graph.n_nodes g');
  Alcotest.(check (array int)) "renumbering" [| 0; -1; 1 |] (renumbering d 3);
  Alcotest.(check int) "incident edges removed" 0 (Graph.n_edges g');
  Alcotest.(check string) "survivor 0" "A" (Graph.label g' 0);
  Alcotest.(check string) "survivor 1" "C" (Graph.label g' 1)

let test_invalid_ops () =
  let g = path3 () in
  let raises op =
    match Mutate.apply g op with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "edge endpoint out of range" true
    (raises (Mutate.Add_edge { name = None; src = 0; dst = 9; tuple = Tuple.empty }));
  Alcotest.(check bool) "set of unknown node" true
    (raises (Mutate.Set_node { v = 7; tuple = lbl "X" }));
  Alcotest.(check bool) "delete of unknown edge" true (raises (Mutate.Del_edge 5));
  let g2, _ =
    Mutate.apply g (Mutate.Add_node { name = Some "x"; tuple = lbl "D" })
  in
  Alcotest.(check bool) "duplicate node name" true
    (match Mutate.apply g2 (Mutate.Add_node { name = Some "x"; tuple = lbl "E" }) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let edge_f src dst =
    Mutate.Add_edge { name = Some "f"; src; dst; tuple = Tuple.empty }
  in
  let g3, _ = Mutate.apply g (edge_f 0 1) in
  Alcotest.(check bool) "duplicate edge name" true
    (match Mutate.apply g3 (edge_f 1 2) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_compose_maps () =
  (* delete 1 (renumber), then relabel the old node 2 under its new id:
     the composed map must relate original ids to final ids *)
  let g = path3 () in
  let g', d =
    Mutate.apply_all g
      [ Mutate.Del_node 1; Mutate.Set_node { v = 1; tuple = lbl "Z" } ]
  in
  Alcotest.(check (array int)) "composed node map" [| 0; -1; 1 |]
    (renumbering d 3);
  Alcotest.(check string) "relabel landed on the survivor" "Z" (Graph.label g' 1)

(* ---- random mutation sequences ------------------------------------- *)

let labels_pool = [| "A"; "B"; "C" |]

(* Derive a valid op sequence from an int seed list: each seed picks an
   op kind and target against the evolving graph; choices that are
   invalid at that point are skipped. *)
let derive_ops g seeds =
  let cur = ref g and ops = ref [] in
  List.iter
    (fun s ->
      let n = Graph.n_nodes !cur and m = Graph.n_edges !cur in
      let k = abs s in
      let op =
        match k mod 6 with
        | 0 ->
          Some (Mutate.Add_node { name = None; tuple = lbl labels_pool.(k mod 3) })
        | 1 when n >= 1 ->
          Some
            (Mutate.Add_edge
               { name = None; src = k mod n; dst = k / 7 mod n; tuple = Tuple.empty })
        | 2 when n >= 1 ->
          Some (Mutate.Set_node { v = k mod n; tuple = lbl labels_pool.(k / 5 mod 3) })
        | 3 when m >= 1 ->
          Some (Mutate.Set_edge { e = k mod m; tuple = lbl labels_pool.(k / 3 mod 3) })
        | 4 when n >= 2 -> Some (Mutate.Del_node (k mod n))
        | 5 when m >= 1 -> Some (Mutate.Del_edge (k mod m))
        | _ -> None
      in
      Option.iter
        (fun op ->
          match Mutate.apply !cur op with
          | g', _ ->
            cur := g';
            ops := op :: !ops
          | exception Invalid_argument _ -> ())
        op)
    seeds;
  List.rev !ops

let gen_case =
  QCheck.Gen.(
    pair (Test_matcher.gen_labeled_graph ~max_n:8) (list_size (int_range 1 12) nat))

let print_case (g, seeds) =
  Format.asprintf "%a@.seeds: %s" Graph.pp g
    (String.concat "," (List.map string_of_int seeds))

(* Soundness of the dirty set: every surviving node NOT listed dirty
   must have an unchanged radius-r profile. *)
let prop_dirty_sound =
  QCheck.Test.make ~name:"dirty set covers every changed profile" ~count:200
    (QCheck.make gen_case ~print:print_case)
    (fun (g, seeds) ->
      let ops = derive_ops g seeds in
      let g', d = Mutate.apply_all g ops in
      let ok = ref true in
      Array.iteri
        (fun old_v new_v ->
          if new_v >= 0 && not (mem new_v d.Mutate.dirty) then
            if
              not
                (Profile.equal
                   (Profile.of_node g ~r:d.Mutate.d_r old_v)
                   (Profile.of_node g' ~r:d.Mutate.d_r new_v))
            then ok := false)
        (renumbering d (Graph.n_nodes g));
      !ok)

(* [Mutate.renumber] against the names: in a batch that deletes
   original nodes, appended nodes and nodes an earlier delete shifted,
   each original node (named "v<id>", unique) renumbers to its name's
   id in the post-state, or to -1 when the batch deleted it; [removed]
   lists exactly the deleted originals, ascending. *)
let prop_renumber_follows_names =
  QCheck.Test.make ~name:"renumber follows each node's name through a batch"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 1 12) nat))
       ~print:(fun (n, seeds) ->
         Printf.sprintf "n=%d seeds: %s" n
           (String.concat "," (List.map string_of_int seeds))))
    (fun (n, seeds) ->
      let b = Graph.Builder.create () in
      for i = 0 to n - 1 do
        let name = Printf.sprintf "v%d" i in
        ignore (Graph.Builder.add_labeled_node b ~name "A")
      done;
      for i = 1 to n - 1 do
        ignore (Graph.Builder.add_edge b (i - 1) i)
      done;
      let g = Graph.Builder.build b in
      let cur = ref g in
      let ops =
        List.mapi
          (fun k seed ->
            let m = Graph.n_nodes !cur in
            let pick = seed / 3 mod max 1 m in
            let op =
              match seed mod 3 with
              | 0 | 1 when m >= 2 -> Mutate.Del_node pick
              | 2 when m >= 1 -> Mutate.Set_node { v = pick; tuple = lbl "B" }
              | _ ->
                Mutate.Add_node
                  { name = Some (Printf.sprintf "x%d" k); tuple = lbl "C" }
            in
            cur := fst (Mutate.apply !cur op);
            op)
          seeds
      in
      let g', d = Mutate.apply_all g ops in
      let id u = Graph.node_by_name g' (Printf.sprintf "v%d" u) in
      let olds = List.init n Fun.id in
      Array.to_list d.Mutate.removed
      = List.filter (fun u -> id u = None) olds
      && List.for_all
           (fun u -> Mutate.renumber d u = Option.value (id u) ~default:(-1))
           olds)

(* The tentpole property: incremental index maintenance lands on exactly
   the same index as a from-scratch rebuild. *)
let li_equal a b g =
  let ls = LI.labels b in
  LI.labels a = ls
  && List.for_all
       (fun l -> LI.nodes_with_label a l = LI.nodes_with_label b l)
       ls
  && LI.top_frequent a (Graph.n_nodes g) = LI.top_frequent b (Graph.n_nodes g)

let pi_equal a b g =
  let n = Graph.n_nodes g in
  let ok = ref (PI.radius a = PI.radius b) in
  for v = 0 to n - 1 do
    if not (Profile.equal (PI.profile a v) (PI.profile b v)) then ok := false
  done;
  !ok

let prop_incremental_equals_rebuild =
  QCheck.Test.make ~name:"incremental index update = full rebuild" ~count:200
    (QCheck.make gen_case ~print:print_case)
    (fun (g, seeds) ->
      let ops = derive_ops g seeds in
      let g', d = Mutate.apply_all g ops in
      let li = LI.update (LI.build g) ~old_graph:g g' d in
      let pi, recomputed = PI.update (PI.build ~r:1 g) g' d in
      recomputed <= Graph.n_nodes g'
      && li_equal li (LI.build g') g'
      && pi_equal pi (PI.build ~r:1 g') g')

(* [Label_index.update] after deletes shifts the postings above each
   removed id instead of rebuilding: every batch here deletes a node
   first and one more last, around random ops (which delete too). *)
let prop_label_update_with_deletes =
  QCheck.Test.make ~name:"label index update = build after batches with Del_node"
    ~count:300
    (QCheck.make gen_case ~print:print_case)
    (fun (g, seeds) ->
      QCheck.assume (Graph.n_nodes g >= 3);
      let s = List.fold_left ( + ) 0 seeds in
      let first = Mutate.Del_node (s mod Graph.n_nodes g) in
      let g1 = fst (Mutate.apply g first) in
      let mid = derive_ops g1 seeds in
      let g2 = fst (Mutate.apply_all g1 mid) in
      let last =
        let n2 = Graph.n_nodes g2 in
        if n2 >= 2 then [ Mutate.Del_node (s / 7 mod n2) ] else []
      in
      let g', d = Mutate.apply_all g ((first :: mid) @ last) in
      Array.length d.Mutate.removed > 0
      && li_equal (LI.update (LI.build g) ~old_graph:g g' d) (LI.build g') g')

let test_incremental_is_local () =
  (* a long path, one relabel at the end: only the r-ball recomputes *)
  let n = 200 in
  let g =
    Graph.of_labeled
      ~labels:(Array.make n "A")
      (List.init (n - 1) (fun i -> (i, i + 1)))
  in
  let pi = PI.build ~r:1 g in
  let g', d = Mutate.apply g (Mutate.Set_node { v = 0; tuple = lbl "B" }) in
  let pi', recomputed = PI.update pi g' d in
  Alcotest.(check bool) "far fewer than n profiles recomputed" true
    (recomputed <= 3);
  Alcotest.(check bool) "still equal to the rebuild" true
    (pi_equal pi' (PI.build ~r:1 g') g')

let test_radius_fallback () =
  (* delta tracked at r=1, index built at r=2: must fall back to a full
     rebuild rather than trust an under-scoped dirty set *)
  let g = path3 () in
  let pi = PI.build ~r:2 g in
  let g', d = Mutate.apply ~r:1 g (Mutate.Set_node { v = 0; tuple = lbl "Z" }) in
  let pi', recomputed = PI.update pi g' d in
  Alcotest.(check int) "every profile recomputed" (Graph.n_nodes g') recomputed;
  Alcotest.(check bool) "fallback equals rebuild" true
    (pi_equal pi' (PI.build ~r:2 g') g')

(* ---- copy-on-write extension against a from-scratch build ----------- *)

(* A graph as plain lists in id order, built from scratch by the
   builder: the oracle for every copy-on-write extension. *)
type model = {
  m_directed : bool;
  m_nodes : (string option * Tuple.t) list;
  m_edges : (string option * int * int * Tuple.t) list;
}

let build_model m =
  let b = Graph.Builder.create ~directed:m.m_directed () in
  List.iter
    (fun (name, t) -> ignore (Graph.Builder.add_node b ?name t))
    m.m_nodes;
  List.iter
    (fun (name, u, v, tuple) ->
      ignore (Graph.Builder.add_edge b ?name ~tuple u v))
    m.m_edges;
  Graph.Builder.build b

let name_if named fmt i = if named then Some (Printf.sprintf fmt i) else None

(* Directed or not, self-loops and parallel edges (random endpoints
   over a few nodes), named and unnamed nodes and edges. *)
let gen_model =
  QCheck.Gen.(
    let* m_directed = bool in
    let* n = int_range 1 6 in
    let* nodes = list_repeat n (pair bool (int_bound 2)) in
    let* edges =
      list_size (int_bound 10)
        (triple bool (int_bound (n - 1)) (int_bound (n - 1)))
    in
    return
      {
        m_directed;
        m_nodes =
          List.mapi
            (fun i (named, l) -> (name_if named "v%d" i, lbl labels_pool.(l)))
            nodes;
        m_edges =
          List.mapi
            (fun i (named, u, v) -> (name_if named "e%d" i, u, v, Tuple.empty))
            edges;
      })

(* The op a seed picks against a graph of [n] nodes and [m] edges,
   with fresh names from the op's position [k]. *)
let cow_op ~n ~m k seed =
  let named = seed mod 3 <> 0 and pick = seed / 4 in
  match seed mod 4 with
  | 0 ->
    Mutate.Add_node
      { name = name_if named "x%d" k; tuple = lbl labels_pool.(pick mod 3) }
  | 2 -> Mutate.Set_node { v = pick mod n; tuple = lbl labels_pool.(seed mod 3) }
  | 3 when m > 0 ->
    Mutate.Set_edge { e = pick mod m; tuple = lbl labels_pool.(seed mod 3) }
  | _ ->
    Mutate.Add_edge
      {
        name = name_if named "f%d" k;
        src = pick mod n;
        dst = pick / 4 mod n;
        tuple = lbl "w";
      }

let model_apply md op =
  let set i x = List.mapi (fun j y -> if i = j then x y else y) in
  match op with
  | Mutate.Add_node { name; tuple } ->
    { md with m_nodes = md.m_nodes @ [ (name, tuple) ] }
  | Mutate.Add_edge { name; src; dst; tuple } ->
    { md with m_edges = md.m_edges @ [ (name, src, dst, tuple) ] }
  | Mutate.Set_node { v; tuple } ->
    { md with m_nodes = set v (fun (nm, _) -> (nm, tuple)) md.m_nodes }
  | Mutate.Set_edge { e; tuple } ->
    let retuple (nm, u, v, _) = (nm, u, v, tuple) in
    { md with m_edges = set e retuple md.m_edges }
  | Mutate.Del_node _ | Mutate.Del_edge _ -> assert false

(* Everything a reader can see of a graph, row order included. *)
let same_graph a b =
  let ids k = List.init k Fun.id in
  let nodes = ids (Graph.n_nodes b) and edges = ids (Graph.n_edges b) in
  let rows f = List.map (f a) nodes = List.map (f b) nodes in
  let node_ok v =
    Tuple.equal (Graph.node_tuple a v) (Graph.node_tuple b v)
    && Graph.node_name a v = Graph.node_name b v
  in
  let edge_ok e =
    let x = Graph.edge a e and y = Graph.edge b e in
    x.Graph.src = y.Graph.src && x.dst = y.dst
    && Tuple.equal x.etuple y.etuple
    && Graph.edge_name a e = Graph.edge_name b e
  in
  (* every name of [b], and one that no graph has *)
  let lookups find names =
    List.for_all (fun s -> find a s = find b s) ("zz" :: names)
  in
  Graph.directed a = Graph.directed b
  && Graph.n_nodes a = Graph.n_nodes b
  && Graph.n_edges a = Graph.n_edges b
  && List.for_all node_ok nodes
  && List.for_all edge_ok edges
  && rows Graph.adj_nbrs && rows Graph.adj_eids
  && rows Graph.in_nbrs && rows Graph.in_eids
  && lookups Graph.node_by_name (List.filter_map (Graph.node_name b) nodes)
  && lookups Graph.edge_by_name (List.filter_map (Graph.edge_name b) edges)

(* The delta each copy-on-write op must return: nothing removed and
   the dirty balls, read off the oracle graphs before and after. *)
let expected_delta ~before ~after op =
  let ball g v = Neighborhood.nodes_within g v ~r:1 in
  let dirty =
    match op with
    | Mutate.Add_node _ -> [ Graph.n_nodes before ]
    | Mutate.Add_edge { src; dst; _ } -> ball after src @ ball after dst
    | Mutate.Set_node { v; _ } -> ball after v
    | Mutate.Set_edge { e; _ } ->
      let { Graph.src; dst; _ } = Graph.edge before e in
      ball before src @ ball before dst
    | Mutate.Del_node _ | Mutate.Del_edge _ -> assert false
  in
  Array.of_list (List.sort_uniq compare dirty)

let prop_cow_equals_build =
  QCheck.Test.make ~name:"copy-on-write apply = from-scratch build"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_model (list_size (int_range 1 12) nat))
       ~print:(fun (md, seeds) ->
         Format.asprintf "%a@.seeds: %s" Graph.pp (build_model md)
           (String.concat "," (List.map string_of_int seeds))))
    (fun (md, seeds) ->
      let g0 = build_model md in
      (* every graph so far with its oracle: a later extension must
         leave each one as it was *)
      let seen = ref [ (g0, g0) ] in
      let step (g, md, k, ok) seed =
        let op = cow_op ~n:(Graph.n_nodes g) ~m:(Graph.n_edges g) k seed in
        let g', d = Mutate.apply g op in
        let md' = model_apply md op in
        let before = build_model md and after = build_model md' in
        let dirty = expected_delta ~before ~after op in
        seen := (g', after) :: !seen;
        ( g',
          md',
          k + 1,
          ok && same_graph g' after
          && d.Mutate.removed = [||]
          && d.Mutate.dirty = dirty )
      in
      let _, _, _, ok = List.fold_left step (g0, md, 0, true) seeds in
      ok && List.for_all (fun (g, oracle) -> same_graph g oracle) !seen)

(* ---- the evaluator's writes, staged through gqlsh's persist sink ---- *)

(* A graph's text and adjacency rows, taken when a write reports it:
   comparing them again later catches a row shared with, and changed
   by, a later extension. *)
let fingerprint g =
  ( Graph.to_string g,
    List.init (Graph.n_nodes g) (fun v ->
        (Graph.adj_nbrs g v, Graph.adj_eids g v, Graph.in_nbrs g v)) )

(* Random valid DML over the named graphs G0 and G1 of doc("D"): a
   model of each graph's live node names, and its live edge names with
   their endpoints' names, picks the targets. *)
type dml_model = {
  mutable live_nodes : string list;
  mutable live_edges : (string * string * string) list;
}

let dml_of_seed models k seed =
  let gi = seed mod 2 in
  let md = models.(gi) in
  let pick l = List.nth l (seed / 7 mod List.length l) in
  let g = Printf.sprintf {|doc("D").G%d|} gi in
  let label = labels_pool.(seed mod 3) in
  match seed / 2 mod 6 with
  | 1 when md.live_nodes <> [] ->
    let a = pick md.live_nodes in
    let b = List.nth md.live_nodes (seed / 11 mod List.length md.live_nodes) in
    let e = Printf.sprintf "f%d" k in
    md.live_edges <- (e, a, b) :: md.live_edges;
    Printf.sprintf "insert edge %s (%s, %s) into %s;" e a b g
  | 2 when md.live_nodes <> [] ->
    Printf.sprintf {|update node %s.%s set <label="%s">;|} g
      (pick md.live_nodes) label
  | 3 when md.live_edges <> [] ->
    let e, _, _ = pick md.live_edges in
    Printf.sprintf "update edge %s.%s set <w=%d>;" g e k
  | 4 when md.live_edges <> [] ->
    let e, _, _ = pick md.live_edges in
    md.live_edges <- List.filter (fun (x, _, _) -> x <> e) md.live_edges;
    Printf.sprintf "delete edge %s.%s;" g e
  | 5 when List.length md.live_nodes > 1 ->
    let a = pick md.live_nodes in
    md.live_nodes <- List.filter (( <> ) a) md.live_nodes;
    md.live_edges <-
      List.filter (fun (_, x, y) -> x <> a && y <> a) md.live_edges;
    Printf.sprintf "delete node %s.%s;" g a
  | _ ->
    let a = Printf.sprintf "n%d" k in
    md.live_nodes <- a :: md.live_nodes;
    Printf.sprintf {|insert node %s <label="%s"> into %s;|} a label g

let persist_base () =
  List.init 2 (fun gi ->
      let b = Graph.Builder.create ~name:(Printf.sprintf "G%d" gi) () in
      let v i =
        Graph.Builder.add_labeled_node b
          ~name:(Printf.sprintf "a%d" i)
          labels_pool.(i)
      in
      let vs = Array.init 3 v in
      ignore (Graph.Builder.add_edge b ~name:"e0" vs.(0) vs.(1));
      ignore (Graph.Builder.add_edge b ~name:"e1" vs.(1) vs.(2));
      Graph.Builder.build b)

(* Two programs, each on freshly opened mounts of one store: after
   each, the store's graphs equal the evaluator's while it is open and
   after the next reopen, which replays them from the log. *)
let prop_persist_matches_evaluator =
  let module Store = Gql_storage.Store in
  let module Mount = Gql_exec.Mount in
  let seeds = QCheck.Gen.(list_size (int_range 1 12) nat) in
  QCheck.Test.make
    ~name:"persisted store graphs = evaluator graphs, across reopen"
    ~count:25
    (QCheck.make
       QCheck.Gen.(pair seeds seeds)
       ~print:(fun (a, b) ->
         let show l = String.concat "," (List.map string_of_int l) in
         show a ^ " / " ^ show b))
    (fun (first, second) ->
      let path = Filename.temp_file "gql_persist" ".store" in
      let st = Store.create path in
      List.iter (fun g -> ignore (Store.add_graph st g)) (persist_base ());
      Store.close st;
      let models =
        Array.init 2 (fun _ ->
            {
              live_nodes = [ "a0"; "a1"; "a2" ];
              live_edges = [ ("e0", "a0", "a1"); ("e1", "a1", "a2") ];
            })
      in
      let seen = ref [] and fresh = ref 0 in
      let agrees mounts graphs =
        match Mount.store (List.hd mounts) with
        | Some st ->
          List.map fingerprint (Store.to_list st) = List.map fingerprint graphs
        | None -> false
      in
      let run_program seeds =
        let mounts, docs = Mount.open_docs [ "D=" ^ path ] in
        let current = ref (List.assoc "D" docs) in
        let sink = Mount.persist mounts in
        let writer w =
          (match w with
          | Gql_core.Eval.W_update { index; old_graph; new_graph; _ } ->
            seen :=
              (old_graph, fingerprint old_graph)
              :: (new_graph, fingerprint new_graph)
              :: !seen;
            current :=
              List.mapi (fun i g -> if i = index then new_graph else g) !current
          | _ -> ());
          sink w
        in
        let statement seed =
          incr fresh;
          dml_of_seed models !fresh seed
        in
        let program = String.concat "\n" (List.map statement seeds) in
        ignore (Gql_core.Gql.run_query ~docs ~writer program);
        let live = agrees mounts !current in
        Mount.close_all mounts;
        let mounts, _ = Mount.open_docs [ "D=" ^ path ] in
        let reopened = agrees mounts !current in
        Mount.close_all mounts;
        live && reopened
      in
      let ok = run_program first && run_program second in
      Sys.remove path;
      ok && List.for_all (fun (g, fp) -> fingerprint g = fp) !seen)

let suite =
  [
    Alcotest.test_case "add node" `Quick test_add_node;
    Alcotest.test_case "add edge" `Quick test_add_edge;
    Alcotest.test_case "set node" `Quick test_set_node;
    Alcotest.test_case "del edge" `Quick test_del_edge;
    Alcotest.test_case "del node renumbers" `Quick test_del_node;
    Alcotest.test_case "invalid ops rejected" `Quick test_invalid_ops;
    Alcotest.test_case "apply_all composes maps" `Quick test_compose_maps;
    QCheck_alcotest.to_alcotest prop_dirty_sound;
    QCheck_alcotest.to_alcotest prop_renumber_follows_names;
    QCheck_alcotest.to_alcotest prop_incremental_equals_rebuild;
    QCheck_alcotest.to_alcotest prop_label_update_with_deletes;
    QCheck_alcotest.to_alcotest prop_cow_equals_build;
    QCheck_alcotest.to_alcotest prop_persist_matches_evaluator;
    Alcotest.test_case "incremental update is local" `Quick
      test_incremental_is_local;
    Alcotest.test_case "narrow delta forces a rebuild" `Quick
      test_radius_fallback;
  ]
