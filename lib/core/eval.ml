open Gql_graph

exception Error = Plan.Error

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type docs = (string * Graph.t list) list

module Budget = Gql_matcher.Budget

(* One applied DML statement, reported to the ?writer sink so the
   caller (gqlsh, the exec service) can persist it — append the ops to
   the store's transaction log, refresh caches, bump the watermark. *)
type write =
  | W_update of {
      source : string;
      index : int;  (* position of the graph within the doc's list *)
      old_graph : Graph.t;
      new_graph : Graph.t;
      ops : Mutate.op list;
      delta : Mutate.delta;
    }
  | W_insert of { source : string; new_graph : Graph.t }
  | W_remove of { source : string; index : int; old_graph : Graph.t }
  | W_create_view of {
      name : string;
      materialized : bool;
      def : Ast.flwr;  (* pattern resolved inline: self-contained *)
      graphs : Graph.t list;  (* the result at creation time *)
      epoch : int;  (* refresh generation: 0 at creation *)
    }
  | W_drop_view of { name : string }

type result = {
  defs : (string * Ast.graph_decl) list;
  vars : (string * Graph.t) list;
  last : Algebra.collection option;
  stopped : Budget.stop_reason;
  writes : int;
}

type selector =
  exhaustive:bool ->
  patterns:Gql_matcher.Rpq.pattern list ->
  Algebra.collection ->
  Algebra.collection * Budget.stop_reason

type state = {
  mutable s_defs : (string * Ast.graph_decl) list;
  mutable s_vars : (string * Graph.t) list;
  mutable s_last : Algebra.collection option;
  mutable s_stopped : Budget.stop_reason;
  mutable s_docs : docs;  (* DML mutates the in-run view of the sources *)
  mutable s_writes : int;
}

(* the program variables' part of a template environment *)
let vars_env vars = List.map (fun (name, g) -> (name, Template.Pgraph g)) vars

(* Compile a template once per statement; apply the result per match to
   the environment ([pname] binding, then the variables). *)
let compile_template st = function
  | Ast.Tgraph decl -> Template.compile decl
  | Ast.Tvar v ->
    fun _ ->
      (match List.assoc_opt v st.s_vars with
      | Some g -> g
      | None -> error "unknown variable %s" v)

let instantiate_template st t = compile_template st t (vars_env st.s_vars)

(* --- DML ------------------------------------------------------------------ *)

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

let find_doc st doc =
  match List.assoc_opt doc st.s_docs with
  | Some gs -> gs
  | None -> error "unknown collection %S" doc

let set_doc st doc gs = st.s_docs <- (doc, gs) :: List.remove_assoc doc st.s_docs

(* graphs inside a collection are addressed by their declared name *)
let find_graph st (r : Ast.doc_ref) =
  let gs = find_doc st r.d_doc in
  let rec go i = function
    | [] -> error "no graph named %s in doc(%S)" r.d_graph r.d_doc
    | g :: _ when Graph.name g = Some r.d_graph -> (i, g)
    | _ :: tl -> go (i + 1) tl
  in
  go 0 gs

let node_id g (r : Ast.doc_ref) name =
  match Graph.node_by_name g name with
  | Some v -> v
  | None -> error "no node named %s in doc(%S).%s" name r.d_doc r.d_graph

let edge_id g (r : Ast.doc_ref) name =
  match Graph.edge_by_name g name with
  | Some e -> e
  | None -> error "no edge named %s in doc(%S).%s" name r.d_doc r.d_graph

let apply_ops st writer (r : Ast.doc_ref) ops =
  let i, g = find_graph st r in
  let g', delta =
    try Mutate.apply_all g ops with Invalid_argument m -> error "%s" m
  in
  set_doc st r.d_doc
    (List.mapi (fun j x -> if j = i then g' else x) (find_doc st r.d_doc));
  st.s_writes <- st.s_writes + 1;
  writer
    (W_update
       { source = r.d_doc; index = i; old_graph = g; new_graph = g'; ops; delta })

let exec_dml st instantiate writer = function
  | Ast.Insert_node { i_name; i_tuple; i_into } ->
    apply_ops st writer i_into
      [ Mutate.Add_node { name = Some i_name; tuple = const_tuple i_tuple } ]
  | Ast.Insert_edge { i_name; i_src; i_dst; i_tuple; i_into } ->
    let _, g = find_graph st i_into in
    let src = node_id g i_into i_src and dst = node_id g i_into i_dst in
    apply_ops st writer i_into
      [ Mutate.Add_edge { name = i_name; src; dst; tuple = const_tuple i_tuple } ]
  | Ast.Insert_graph { i_decl; i_doc } ->
    let name =
      match i_decl.Ast.g_name with
      | Some n -> n
      | None -> error "insert graph needs a named graph"
    in
    let gs = find_doc st i_doc in
    if List.exists (fun g -> Graph.name g = Some name) gs then
      error "doc(%S) already has a graph named %s" i_doc name;
    let g = instantiate (Ast.Tgraph i_decl) in
    set_doc st i_doc (gs @ [ g ]);
    st.s_writes <- st.s_writes + 1;
    writer (W_insert { source = i_doc; new_graph = g })
  | Ast.Update_node { u_ref; u_node; u_tuple } ->
    let _, g = find_graph st u_ref in
    let v = node_id g u_ref u_node in
    (* merge: new fields win, untouched fields survive *)
    let tuple = Tuple.union (Graph.node_tuple g v) (const_tuple (Some u_tuple)) in
    apply_ops st writer u_ref [ Mutate.Set_node { v; tuple } ]
  | Ast.Update_edge { u_ref; u_edge; u_tuple } ->
    let _, g = find_graph st u_ref in
    let e = edge_id g u_ref u_edge in
    let tuple =
      Tuple.union (Graph.edge g e).Graph.etuple (const_tuple (Some u_tuple))
    in
    apply_ops st writer u_ref [ Mutate.Set_edge { e; tuple } ]
  | Ast.Delete_node { x_ref; x_node } ->
    let _, g = find_graph st x_ref in
    apply_ops st writer x_ref [ Mutate.Del_node (node_id g x_ref x_node) ]
  | Ast.Delete_edge { x_ref; x_edge } ->
    let _, g = find_graph st x_ref in
    apply_ops st writer x_ref [ Mutate.Del_edge (edge_id g x_ref x_edge) ]
  | Ast.Delete_graph r ->
    let i, g = find_graph st r in
    set_doc st r.d_doc (List.filteri (fun j _ -> j <> i) (find_doc st r.d_doc));
    st.s_writes <- st.s_writes + 1;
    writer (W_remove { source = r.d_doc; index = i; old_graph = g })

let run ?(docs = []) ?strategy ?max_depth ?max_derivations ?budget
    ?(metrics = Gql_obs.Metrics.disabled) ?selector ?(writer = fun _ -> ())
    (program : Ast.program) =
  let selector =
    (* the default selector is the plain bulk-algebra selection; the
       exec service substitutes a caching, quantum-yielding one *)
    match selector with
    | Some s -> s
    | None ->
      fun ~exhaustive ~patterns entries ->
        Algebra.select_governed ?strategy ~exhaustive ?budget ~metrics
          ~patterns entries
  in
  let st =
    {
      s_defs = [];
      s_vars = [];
      s_last = None;
      s_stopped = Budget.Exhausted;
      s_docs = docs;
      s_writes = 0;
    }
  in
  (* resolve a statement source: a doc (or mounted view) first, then a
     variable holding a single graph *)
  let resolve_source source =
    match List.assoc_opt source st.s_docs with
    | Some gs -> gs
    | None ->
      (match List.assoc_opt source st.s_vars with
      | Some g -> [ g ]
      | None ->
        (match Ast.view_of_source source with
        | Some v -> error "unknown view %S" v
        | None -> error "unknown collection %S" source))
  in
  (* σ: run the (possibly cached) selector over the source collection,
     then the where filter *)
  let select (sel : Plan.select) =
    st.s_stopped <- Budget.worst st.s_stopped sel.enum_stopped;
    let entries = List.map (fun g -> Algebra.G g) (resolve_source sel.source) in
    let matches, sel_stopped =
      Gql_obs.Metrics.with_span metrics "flwr" (fun () ->
          selector ~exhaustive:sel.exhaustive ~patterns:sel.patterns entries)
    in
    st.s_stopped <- Budget.worst st.s_stopped sel_stopped;
    if sel.where = None then matches
    else
      List.filter
        (function Algebra.M m -> Plan.admits sel m | Algebra.G _ -> true)
        matches
  in
  (* ω: one instantiated template graph per match *)
  let compose (sel : Plan.select) instantiate vars matches =
    List.map
      (fun entry ->
        instantiate ((sel.pname, Algebra.template_param entry) :: vars))
      matches
  in
  let exec = function
    | Plan.Assign (v, t) ->
      let g = instantiate_template st t in
      st.s_vars <- (v, g) :: List.remove_assoc v st.s_vars
    | Plan.Return (sel, t) ->
      let matches = select sel in
      st.s_last <-
        Some
          (List.map
             (fun g -> Algebra.G g)
             (compose sel (compile_template st t) (vars_env st.s_vars) matches))
    | Plan.Fold (v, sel, t) ->
      let matches = select sel in
      (* each match rebinds [v]; the other variables stay put *)
      let instantiate = compile_template st t in
      let others = vars_env (List.remove_assoc v st.s_vars) in
      let vars = ref (vars_env st.s_vars) in
      List.iter
        (fun entry ->
          let param = Algebra.template_param entry in
          let g = instantiate ((sel.pname, param) :: !vars) in
          st.s_vars <- (v, g) :: List.remove_assoc v st.s_vars;
          vars := (v, Template.Pgraph g) :: others)
        matches
    | Plan.Create_view { name; materialized; def; sel; compose = t } ->
      if not (List.mem_assoc sel.source st.s_docs) then
        error "view %s: %a is not a document collection (views over \
               variables cannot be maintained)" name Ast.pp_source sel.source;
      (* the program's variables stay out of the template environment:
         the maintainer replays the definition alone *)
      let graphs = compose sel t [] (select sel) in
      set_doc st (Ast.view_source name) graphs;
      st.s_writes <- st.s_writes + 1;
      writer (W_create_view { name; materialized; def; graphs; epoch = 0 })
    | Plan.Drop_view name ->
      let source = Ast.view_source name in
      if not (List.mem_assoc source st.s_docs) then
        error "unknown view %S" name;
      st.s_docs <- List.remove_assoc source st.s_docs;
      st.s_writes <- st.s_writes + 1;
      writer (W_drop_view { name })
    | Plan.Path q ->
      let module Rpq = Gql_matcher.Rpq in
      let source = resolve_source q.Ast.q_source in
      let node_candidates g (d : Ast.node_decl) =
        (match d.Ast.n_copy with
        | Some p ->
          error "node copy %s is not allowed in path queries"
            (String.concat "." p)
        | None -> ());
        let tuple = const_tuple d.Ast.n_tuple in
        let ok v =
          let dt = Graph.node_tuple g v in
          List.for_all
            (fun (k, w) -> Value.equal (Tuple.get dt k) w)
            (Tuple.bindings tuple)
          && (match Tuple.tag tuple with
             | None -> true
             | Some tag -> Tuple.tag dt = Some tag)
          && (match d.Ast.n_where with
             | None -> true
             | Some p -> Pred.holds (Pred.env_of_tuple dt) p)
        in
        List.filter ok (List.init (Graph.n_nodes g) Fun.id)
      in
      (* a witness walk as a standalone graph: positions p0..pk carrying
         the data tuples (a walk may revisit a node, so positions, not
         original names, identify the output's nodes) *)
      let materialize_walk g nodes edges =
        let b = Graph.Builder.create ~directed:(Graph.directed g) () in
        List.iteri
          (fun i v ->
            ignore
              (Graph.Builder.add_node b
                 ~name:(Printf.sprintf "p%d" i)
                 (Graph.node_tuple g v)))
          nodes;
        List.iteri
          (fun i e ->
            ignore
              (Graph.Builder.add_edge b
                 ~tuple:(Graph.edge g e).Graph.etuple i (i + 1)))
          edges;
        Graph.Builder.build b
      in
      let poll () = match budget with Some b -> Budget.poll b | None -> None in
      let min_hops, max_hops = q.Ast.q_rep in
      let stop = ref Budget.Exhausted in
      let results = ref [] in
      Gql_obs.Metrics.with_span metrics "path" (fun () ->
          try
            match q.Ast.q_kind with
            | `Subgraph r ->
              if q.Ast.q_edge <> None || q.Ast.q_rep <> (1, None) then
                error
                  "get subgraph does not take 'over' constraints (the \
                   radius-%d ball is unconstrained)"
                  r;
              List.iter
                (fun g ->
                  List.iter
                    (fun u ->
                      (match poll () with
                      | Some r' ->
                        stop := r';
                        raise Exit
                      | None -> ());
                      let nb = Neighborhood.make g u ~r in
                      results := Algebra.G nb.Neighborhood.graph :: !results)
                    (node_candidates g q.Ast.q_from))
                source
            | `Path _shortest ->
              let to_decl =
                match q.Ast.q_to with
                | Some d -> d
                | None -> error "find path needs a 'to' endpoint"
              in
              let seg =
                {
                  Rpq.seg_src = 0;
                  seg_dst = 1;
                  seg_min = min_hops;
                  seg_max = max_hops;
                  seg_tuple = const_tuple q.Ast.q_edge;
                  seg_pred = Pred.True;
                }
              in
              (* the reachability index answers "no path" in O(1) for
                 unconstrained walks, skipping the witness BFS *)
              let fast = Rpq.segment_unconstrained seg && min_hops <= 1
                         && max_hops = None
              in
              List.iter
                (fun g ->
                  let ctx = Rpq.ctx g in
                  let froms = node_candidates g q.Ast.q_from in
                  let tos = node_candidates g to_decl in
                  List.iter
                    (fun u ->
                      List.iter
                        (fun v ->
                          (match poll () with
                          | Some r ->
                            stop := r;
                            raise Exit
                          | None -> ());
                          let skip =
                            fast
                            && not
                                 (fst
                                    (Rpq.segment_holds ~metrics ctx seg ~src:u
                                       ~dst:v))
                          in
                          if not skip then begin
                            let witness, r =
                              Rpq.shortest_walk ?budget ~metrics ctx seg ~src:u
                                ~dst:v
                            in
                            (match r with
                            | Budget.Exhausted | Budget.Hit_limit -> ()
                            | r -> stop := Budget.worst !stop r);
                            match witness with
                            | Some (nodes, edges) ->
                              results :=
                                Algebra.G (materialize_walk g nodes edges)
                                :: !results
                            | None -> ()
                          end)
                        tos)
                    froms)
                source
          with Exit -> ());
      st.s_stopped <- Budget.worst st.s_stopped !stop;
      st.s_last <- Some (List.rev !results)
    | Plan.Write d -> exec_dml st (instantiate_template st) writer d
  in
  (* compile, then run, one statement at a time: an error surfaces
     after the earlier statements' writes have reached the sink *)
  List.iter
    (fun stmt ->
      let defs, node =
        Plan.compile_statement ?max_depth ?max_derivations ?budget st.s_defs
          stmt
      in
      st.s_defs <- defs;
      Option.iter exec node)
    program;
  {
    defs = st.s_defs;
    vars = st.s_vars;
    last = st.s_last;
    stopped = st.s_stopped;
    writes = st.s_writes;
  }

let var r name = List.assoc_opt name r.vars

let returned r =
  match r.last with None -> [] | Some c -> Algebra.graphs c
