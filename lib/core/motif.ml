open Gql_graph

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type defs = string -> Ast.graph_decl option

let no_defs _ = None
let defs_of_list l name = List.assoc_opt name l

(* --- scopes -------------------------------------------------------------- *)

(* A scope maps the names declared at one nesting level to proto ids,
   and graph aliases to the scopes of the motifs they stand for. It is
   persistent: derivation backtracks over [Alt] branches and repetition
   lengths, and each alternative must continue from the scope it
   started with. Every binding carries the scope's insertion counter,
   because canonical edge names depend on declaration order (see
   [collect_names]). *)

module SMap = Map.Make (String)

type scope = {
  s_nodes : (int * int) SMap.t;  (* name -> (seq, proto node id) *)
  s_edges : (int * int) SMap.t;  (* name -> (seq, proto edge id) *)
  s_subs : (int * scope) SMap.t;  (* alias -> (seq, sub-scope) *)
  s_seq : int;  (* next insertion number *)
}

let empty_scope =
  { s_nodes = SMap.empty; s_edges = SMap.empty; s_subs = SMap.empty; s_seq = 0 }

let find_id name m = Option.map snd (SMap.find_opt name m)

let rec resolve_node scope = function
  | [] -> None
  | [ x ] -> find_id x scope.s_nodes
  | x :: rest ->
    Option.bind (find_id x scope.s_subs) (fun sub -> resolve_node sub rest)

let rec resolve_edge scope = function
  | [] -> None
  | [ x ] -> find_id x scope.s_edges
  | x :: rest ->
    Option.bind (find_id x scope.s_subs) (fun sub -> resolve_edge sub rest)

let split_at l i =
  let rec go acc i = function
    | rest when i = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (x :: acc) (i - 1) rest
  in
  go [] i l

(* longest prefix of [path] resolving to a node (resp. edge) *)
let resolve_prefix resolver scope path =
  let n = List.length path in
  let rec try_len l =
    if l = 0 then None
    else
      let prefix, rest = split_at path l in
      match resolver scope prefix with
      | Some id -> Some (id, rest)
      | None -> try_len (l - 1)
  in
  try_len n

(* --- accumulator ---------------------------------------------------------- *)

type acc = {
  a_nodes : (Tuple.t * Pred.t) list;  (* reversed; id = position *)
  a_n : int;
  a_edges : (int * int * Tuple.t * Pred.t) list;  (* reversed *)
  a_m : int;
  a_segments : (int * int * int * Tuple.t * Pred.t) list;
      (* unbounded repetition: src, dst, min hops, step constraints *)
  a_unions : (int * int) list;
  a_pending : (scope * string option * Pred.t) list;
  a_depth : int;  (* max nesting depth of graph references used so far *)
}

let empty_acc =
  {
    a_nodes = [];
    a_n = 0;
    a_edges = [];
    a_m = 0;
    a_segments = [];
    a_unions = [];
    a_pending = [];
    a_depth = 0;
  }

let const_value expr =
  match Pred.eval (fun _ -> None) expr with
  | v -> v
  | exception Pred.Unresolved p ->
    error "non-constant attribute value (references %s)" (String.concat "." p)
  | exception Value.Type_error m -> error "bad attribute value: %s" m

let const_tuple = function
  | None -> Tuple.empty
  | Some { Ast.tag; fields } ->
    Tuple.make ?tag (List.map (fun (k, e) -> (k, const_value e)) fields)

(* --- expansion ------------------------------------------------------------ *)

(* Derivations are enumerated by increasing nesting depth (iterative
   deepening), so the shallowest derivations of a recursive motif come
   first — "the first resulting graph consists of node v0 alone"
   (Fig 4.6b). Instead of re-expanding the whole tree once per depth
   (the old [Seq.init (max_depth+1)] + exact-depth filter built every
   derivation up to 17x), expansion yields a stream of {e steps}: a
   branch suspends itself the moment its nesting depth grows, and the
   driver resumes suspended branches bucket by bucket. Each derivation
   is built exactly once, in depth order. *)

type 'a step =
  | Done of 'a
  | Suspend of int * (unit -> 'a step Seq.t)
      (* this branch just reached nesting depth [d]; resume it when
         every shallower derivation has been emitted *)

let rec bind (s : 'a step Seq.t) (f : 'a -> 'b step Seq.t) : 'b step Seq.t =
  Seq.concat_map
    (function
      | Done x -> f x
      | Suspend (d, k) -> Seq.return (Suspend (d, fun () -> bind (k ()) f)))
    s

let add_node_name scope name id =
  if SMap.mem name scope.s_nodes then error "duplicate node name %s" name;
  { scope with
    s_nodes = SMap.add name (scope.s_seq, id) scope.s_nodes;
    s_seq = scope.s_seq + 1 }

let add_edge_name scope name id =
  if SMap.mem name scope.s_edges then error "duplicate edge name %s" name;
  { scope with
    s_edges = SMap.add name (scope.s_seq, id) scope.s_edges;
    s_seq = scope.s_seq + 1 }

let add_sub scope alias sub =
  if SMap.mem alias scope.s_subs then error "duplicate graph alias %s" alias;
  { scope with
    s_subs = SMap.add alias (scope.s_seq, sub) scope.s_subs;
    s_seq = scope.s_seq + 1 }

(* [level] is the nesting level of the members being expanded (root
   decl = 0); entering a graph reference at level [l] contributes
   nesting depth [l + 1]. [truncated] records that some branch was cut
   by [max_depth], so "no derivation" can be told apart from "none
   within depth". *)
let rec expand_members defs ~level ~max_depth ~truncated members st :
    (acc * scope) step Seq.t =
  match members with
  | [] -> Seq.return (Done st)
  | m :: rest ->
    bind
      (expand_member defs ~level ~max_depth ~truncated m st)
      (expand_members defs ~level ~max_depth ~truncated rest)

and expand_member defs ~level ~max_depth ~truncated member ((acc, scope) as st)
    : (acc * scope) step Seq.t =
  match member with
  | Ast.Nodes decls ->
    let step (acc, scope) (d : Ast.node_decl) =
      (match d.Ast.n_copy with
      | Some p -> error "node copy %s is only allowed in templates" (String.concat "." p)
      | None -> ());
      let id = acc.a_n in
      let tuple = const_tuple d.Ast.n_tuple in
      let pred = Option.value d.Ast.n_where ~default:Pred.True in
      let scope =
        match d.Ast.n_name with
        | Some name -> add_node_name scope name id
        | None -> scope
      in
      ({ acc with a_nodes = (tuple, pred) :: acc.a_nodes; a_n = id + 1 }, scope)
    in
    Seq.return (Done (List.fold_left step st decls))
  | Ast.Edges decls ->
    let rec go decls ((acc, scope) as st) : (acc * scope) step Seq.t =
      match decls with
      | [] -> Seq.return (Done st)
      | (d : Ast.edge_decl) :: rest ->
        let endpoint p =
          match resolve_node scope p with
          | Some id -> id
          | None -> error "unknown edge endpoint %s" (String.concat "." p)
        in
        let src = endpoint d.Ast.e_src and dst = endpoint d.Ast.e_dst in
        let tuple = const_tuple d.Ast.e_tuple in
        let pred = Option.value d.Ast.e_where ~default:Pred.True in
        (match d.Ast.e_rep with
        | None ->
          let id = acc.a_m in
          let scope =
            match d.Ast.e_name with
            | Some name -> add_edge_name scope name id
            | None -> scope
          in
          go rest
            ( { acc with a_edges = (src, dst, tuple, pred) :: acc.a_edges;
                a_m = id + 1 },
              scope )
        | Some (min, None) ->
          (* unbounded repetition: a path segment for the RPQ engine —
             never unrolled, so no depth cap applies *)
          go rest
            ( { acc with
                a_segments = (src, dst, min, tuple, pred) :: acc.a_segments },
              scope )
        | Some (min, Some max) ->
          (* bounded repetition: lazily unroll into a chain of k step
             edges through k-1 fresh anonymous nodes, one alternative
             per k. k = 0 collapses the endpoints (unification). *)
          let unrolled k =
            if k = 0 then
              go rest ({ acc with a_unions = (src, dst) :: acc.a_unions }, scope)
            else begin
              let rec chain acc prev k =
                if k = 1 then
                  { acc with
                    a_edges = (prev, dst, tuple, pred) :: acc.a_edges;
                    a_m = acc.a_m + 1 }
                else
                  let mid = acc.a_n in
                  chain
                    { acc with
                      a_nodes = (Tuple.empty, Pred.True) :: acc.a_nodes;
                      a_n = mid + 1;
                      a_edges = (prev, mid, tuple, pred) :: acc.a_edges;
                      a_m = acc.a_m + 1 }
                    mid (k - 1)
              in
              go rest (chain acc src k, scope)
            end
          in
          Seq.concat_map unrolled (Seq.init (max - min + 1) (fun i -> min + i)))
    in
    go decls st
  | Ast.Graph_refs refs ->
    let rec go refs ((acc, scope) as st) =
      match refs with
      | [] -> Seq.return (Done st)
      | (name, alias) :: rest ->
        let decl =
          match defs name with
          | Some d -> d
          | None -> error "unknown graph motif %s" name
        in
        let d' = level + 1 in
        if d' > max_depth then begin
          truncated := true;
          Seq.empty
        end
        else begin
          let inner () =
            bind
              (expand_decl defs ~level:d' ~max_depth ~truncated decl
                 { acc with a_depth = max acc.a_depth d' })
              (fun (acc', sub_scope) ->
                let scope' =
                  add_sub scope (Option.value alias ~default:name) sub_scope
                in
                go rest (acc', scope'))
          in
          (* suspend exactly when the derivation gets deeper than
             anything seen on this branch, so the driver can finish
             shallower derivations first *)
          if d' > acc.a_depth then Seq.return (Suspend (d', inner))
          else inner ()
        end
    in
    go refs st
  | Ast.Unify (paths, where) ->
    if where <> None then error "conditional unify is only allowed in templates";
    let ids =
      List.map
        (fun p ->
          match resolve_node scope p with
          | Some id -> id
          | None -> error "unify: unknown name %s" (String.concat "." p))
        paths
    in
    let unions =
      match ids with
      | first :: rest -> List.map (fun id -> (first, id)) rest
      | [] -> []
    in
    Seq.return (Done ({ acc with a_unions = unions @ acc.a_unions }, scope))
  | Ast.Exports exports ->
    let step (acc, scope) (p, name) =
      match resolve_node scope p with
      | Some id -> (acc, add_node_name scope name id)
      | None ->
        (match resolve_edge scope p with
        | Some id -> (acc, add_edge_name scope name id)
        | None -> error "export: unknown name %s" (String.concat "." p))
    in
    Seq.return (Done (List.fold_left step st exports))
  | Ast.Alt branches ->
    Seq.concat_map
      (fun branch -> expand_members defs ~level ~max_depth ~truncated branch st)
      (List.to_seq branches)

and expand_decl defs ~level ~max_depth ~truncated (decl : Ast.graph_decl) acc :
    (acc * scope) step Seq.t =
  bind
    (expand_members defs ~level ~max_depth ~truncated decl.Ast.g_members
       (acc, empty_scope))
    (fun (acc, scope) ->
      let acc =
        match decl.Ast.g_where with
        | Some pred ->
          { acc with a_pending = (scope, decl.Ast.g_name, pred) :: acc.a_pending }
        | None -> acc
      in
      Seq.return (Done (acc, scope)))

(* --- union-find ----------------------------------------------------------- *)

let build_uf n unions =
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  List.iter
    (fun (a, b) ->
      let ra = find a and rb = find b in
      (* keep the smaller id as representative so that names of the
         earliest declaration win ties deterministically *)
      if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb)
    unions;
  find

(* --- building the derived graph ------------------------------------------- *)

type derived = {
  graph : Graph.t;
  node_preds : (int * Pred.t) list;
  edge_preds : (int * Pred.t) list;
  global_pred : Pred.t;
  segments : Gql_matcher.Rpq.segment list;
}

(* Every name in [scope] and its sub-scopes as a dotted path, in the
   order that decides canonical edge names (the first name of an edge
   wins): a scope's own names before its sub-scopes', and within one
   scope the name added last first. Node names need no order, since
   [pick_name] does not depend on it. *)
let collect_names scope =
  let latest_first m =
    SMap.fold (fun name (seq, x) acc -> (seq, name, x) :: acc) m []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a)
  in
  let rec go prefix scope (ns, es) =
    let ns = SMap.fold (fun n (_, id) ns -> (prefix ^ n, id) :: ns) scope.s_nodes ns in
    let es =
      List.fold_left
        (fun es (_, n, id) -> (prefix ^ n, id) :: es)
        es (latest_first scope.s_edges)
    in
    List.fold_left
      (fun acc (_, alias, sub) -> go (prefix ^ alias ^ ".") sub acc)
      (ns, es) (latest_first scope.s_subs)
  in
  let ns, es = go "" scope ([], []) in
  (ns, List.rev es)

let pick_name names =
  match names with
  | [] -> None
  | _ ->
    Some
      (List.fold_left
         (fun best n ->
           if
             String.length n < String.length best
             || (String.length n = String.length best && n < best)
           then n
           else best)
         (List.hd names) (List.tl names))

let build (decl : Ast.graph_decl) (acc, top_scope) =
  let n = acc.a_n in
  let nodes = Array.of_list (List.rev acc.a_nodes) in
  let edges = Array.of_list (List.rev acc.a_edges) in
  let find = build_uf n acc.a_unions in
  (* final indices for class representatives, in ascending order *)
  let class_index = Hashtbl.create 16 in
  let n_classes = ref 0 in
  for i = 0 to n - 1 do
    let r = find i in
    if not (Hashtbl.mem class_index r) then begin
      Hashtbl.add class_index r !n_classes;
      incr n_classes
    end
  done;
  let cls i = Hashtbl.find class_index (find i) in
  let class_size = Array.make !n_classes 0 in
  for i = 0 to n - 1 do
    class_size.(cls i) <- class_size.(cls i) + 1
  done;
  (* merged tuples and predicates, in proto-id order *)
  let tuples = Array.make !n_classes Tuple.empty in
  let preds = Array.make !n_classes Pred.True in
  Array.iteri
    (fun i (t, p) ->
      let c = cls i in
      tuples.(c) <- Tuple.union tuples.(c) t;
      preds.(c) <- Pred.( && ) preds.(c) p)
    nodes;
  (* canonical names *)
  let node_names, edge_names = collect_names top_scope in
  let class_names = Array.make !n_classes [] in
  List.iter
    (fun (name, id) -> class_names.(cls id) <- name :: class_names.(cls id))
    node_names;
  let canonical = Array.map pick_name class_names in
  (* edges: canonicalize endpoints, merge duplicates (automatic edge
     unification), remember proto-edge -> final-edge mapping *)
  let gtuple = const_tuple decl.Ast.g_tuple in
  let b = Graph.Builder.create ?name:decl.Ast.g_name ~tuple:gtuple () in
  Array.iteri (fun c t -> ignore (Graph.Builder.add_node b ?name:canonical.(c) t)) tuples;
  let edge_map = Array.make (Array.length edges) (-1) in
  let edge_key = Hashtbl.create 16 in
  (* conjoined predicates, indexed by final edge id *)
  let final_edge_preds = Array.make (Array.length edges) Pred.True in
  let proto_edge_names = Array.make (Array.length edges) None in
  List.iter
    (fun (name, id) ->
      if proto_edge_names.(id) = None then proto_edge_names.(id) <- Some name)
    edge_names;
  Array.iteri
    (fun i (src, dst, tuple, pred) ->
      let s = cls src and d = cls dst in
      let ks, kd = if s <= d then (s, d) else (d, s) in
      let key = (ks, kd, tuple) in
      (* "two edges are unified automatically if their respective end
         nodes are unified": only edges touching a merged class are
         dedup candidates — independently declared parallel edges stay *)
      let candidate = class_size.(s) > 1 || class_size.(d) > 1 in
      match (if candidate then Hashtbl.find_opt edge_key key else None) with
      | Some final_id ->
        edge_map.(i) <- final_id;
        final_edge_preds.(final_id) <- Pred.( && ) final_edge_preds.(final_id) pred
      | None ->
        let final_id =
          Graph.Builder.add_edge b ?name:proto_edge_names.(i) ~tuple s d
        in
        Hashtbl.add edge_key key final_id;
        edge_map.(i) <- final_id;
        final_edge_preds.(final_id) <- pred)
    edges;
  let graph = Graph.Builder.build b in
  (* rewrite pending where-clauses to canonical names *)
  let canon_node_name c =
    match canonical.(c) with Some s -> s | None -> Printf.sprintf "v%d" c
  in
  let canon_edge_name e =
    match Graph.edge_name graph e with Some s -> s | None -> Printf.sprintf "e%d" e
  in
  let rewrite (scope, self, pred) =
    let rec map_paths = function
      | (Pred.True | Pred.Lit _) as p -> p
      | Pred.Attr path ->
        let path =
          match self, path with
          | Some name, x :: rest when x = name && rest <> [] -> rest
          | _ -> path
        in
        (match resolve_prefix resolve_node scope path with
        | Some (id, rest) -> Pred.Attr (canon_node_name (cls id) :: rest)
        | None ->
          (match resolve_prefix resolve_edge scope path with
          | Some (id, rest) when edge_map.(id) >= 0 ->
            Pred.Attr (canon_edge_name edge_map.(id) :: rest)
          | _ -> Pred.Attr path))
      | Pred.Not p -> Pred.Not (map_paths p)
      | Pred.Binop (op, a, b) -> Pred.Binop (op, map_paths a, map_paths b)
    in
    map_paths pred
  in
  let global_pred =
    Pred.conj (List.rev_map rewrite acc.a_pending)
  in
  let node_preds =
    Array.to_list preds
    |> List.mapi (fun c p -> (c, p))
    |> List.filter (fun (_, p) -> not (Pred.equal p Pred.True))
  in
  let edge_preds =
    Array.to_list (Array.sub final_edge_preds 0 (Graph.n_edges graph))
    |> List.mapi (fun e p -> (e, p))
    |> List.filter (fun (_, p) -> not (Pred.equal p Pred.True))
  in
  let segments =
    List.rev_map
      (fun (src, dst, min, tuple, pred) ->
        {
          Gql_matcher.Rpq.seg_src = cls src;
          seg_dst = cls dst;
          seg_min = min;
          seg_max = None;
          seg_tuple = tuple;
          seg_pred = pred;
        })
      acc.a_segments
  in
  { graph; node_preds; edge_preds; global_pred; segments }

(* --- public API ------------------------------------------------------------ *)

(* Drive the step stream depth bucket by depth bucket: drain the
   current bucket's stream, parking suspensions (which always target a
   strictly deeper bucket), then resume the parked branches of the next
   depth in encounter order. Purely functional over persistent lists,
   so the returned Seq can be re-forced from the start. *)
let derive ?(defs = no_defs) ?(max_depth = 16) ?truncated decl =
  let truncated =
    match truncated with Some r -> r | None -> ref false
  in
  let rec drain d pending s () =
    match Seq.uncons s with
    | Some (Done st, rest) -> Seq.Cons (build decl st, drain d pending rest)
    | Some (Suspend (d', k), rest) -> drain d ((d', k) :: pending) rest ()
    | None -> next_depth (d + 1) pending ()
  and next_depth d pending () =
    if pending = [] then Seq.Nil
    else begin
      let now, later = List.partition (fun (d', _) -> d' = d) pending in
      match now with
      | [] -> next_depth (d + 1) pending ()
      | _ ->
        let s = Seq.concat_map (fun (_, k) -> k ()) (List.to_seq (List.rev now)) in
        drain d later s ()
    end
  in
  drain 0 []
    (expand_decl defs ~level:0 ~max_depth ~truncated decl empty_acc)

let to_flat d =
  (* push pushable conjuncts of the global predicate down to nodes/edges *)
  let base =
    Gql_matcher.Flat_pattern.of_graph ~node_preds:d.node_preds
      ~edge_preds:d.edge_preds ~global_pred:Pred.True d.graph
  in
  let from_where = Gql_matcher.Flat_pattern.of_where d.graph d.global_pred in
  {
    base with
    Gql_matcher.Flat_pattern.node_preds =
      Array.mapi
        (fun i p ->
          Pred.( && ) p from_where.Gql_matcher.Flat_pattern.node_preds.(i))
        base.Gql_matcher.Flat_pattern.node_preds;
    edge_preds =
      Array.mapi
        (fun i p ->
          Pred.( && ) p from_where.Gql_matcher.Flat_pattern.edge_preds.(i))
        base.Gql_matcher.Flat_pattern.edge_preds;
    global_pred = from_where.Gql_matcher.Flat_pattern.global_pred;
  }

let to_path d = { Gql_matcher.Rpq.core = to_flat d; segments = d.segments }

let path_patterns ?defs ?max_depth ?truncated decl =
  Seq.map to_path (derive ?defs ?max_depth ?truncated decl)

let flat_patterns ?defs ?max_depth decl =
  Seq.map
    (fun d ->
      if d.segments <> [] then
        error
          "pattern %s uses unbounded repetition; it needs the path-query \
           engine, not a flat matcher"
          (Option.value decl.Ast.g_name ~default:"");
      to_flat d)
    (derive ?defs ?max_depth decl)

let is_ground d =
  d.node_preds = [] && d.edge_preds = []
  && Pred.equal d.global_pred Pred.True
  && d.segments = []

let to_graph ?defs decl =
  let truncated = ref false in
  let gname = Option.value decl.Ast.g_name ~default:"" in
  match List.of_seq (Seq.take 2 (derive ?defs ~max_depth:16 ~truncated decl)) with
  | [] ->
    if !truncated then
      error
        "graph %s has no derivation within depth 16 (recursive references \
         truncated)"
        gname
    else error "graph %s has no derivation" gname
  | [ d ] when is_ground d -> d.graph
  | [ _ ] ->
    error "graph literal has predicates or repetition; expected a ground data graph"
  | _ -> error "graph literal is ambiguous (disjunction or recursion)"

let language ?defs ?max_depth decl =
  Seq.map (fun d -> d.graph) (derive ?defs ?max_depth decl)
