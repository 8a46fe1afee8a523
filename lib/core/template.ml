open Gql_graph

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type param =
  | Pgraph of Graph.t
  | Pmatched of Matched.t

type env = (string * param) list

let param_pred_env = function
  | Pgraph g ->
    fun path ->
      (match path with
      | [ attr ] -> Some (Tuple.get (Graph.tuple g) attr)
      | [ node; attr ] ->
        Option.map
          (fun v -> Tuple.get (Graph.node_tuple g v) attr)
          (Graph.node_by_name g node)
      | _ -> None)
  | Pmatched m -> Matched.env m

let param_env env = Pred.env_scope (List.map (fun (n, p) -> (n, param_pred_env p)) env)

(* builder state: proto nodes with union-find applied at the end *)
type state = {
  mutable nodes : (string option * Tuple.t) list;  (* reversed *)
  mutable n : int;
  mutable edges : (string option * int * int * Tuple.t) list;  (* reversed *)
  mutable unions : (int * int) list;
  (* name -> proto id for locally declared nodes *)
  locals : (string, int) Hashtbl.t;
  (* (param name, source node id) -> proto id for copies *)
  copies : ((string * int), int) Hashtbl.t;
  (* alias -> (source graph, source node id -> proto id) for inclusions *)
  includes : (string, Graph.t * int array) Hashtbl.t;
}

let new_state () =
  {
    nodes = [];
    n = 0;
    edges = [];
    unions = [];
    locals = Hashtbl.create 8;
    copies = Hashtbl.create 8;
    includes = Hashtbl.create 4;
  }

let add_proto_node st name tuple =
  let id = st.n in
  st.nodes <- (name, tuple) :: st.nodes;
  st.n <- id + 1;
  id

let add_proto_edge st name src dst tuple =
  st.edges <- (name, src, dst, tuple) :: st.edges

(* evaluate a template tuple literal *)
let eval_tuple penv = function
  | None -> Tuple.empty
  | Some { Ast.tag; fields } ->
    Tuple.make ?tag
      (List.map
         (fun (k, e) ->
           match Pred.eval penv e with
           | v -> (k, v)
           | exception Pred.Unresolved p ->
             error "template attribute %s: unresolved %s" k (String.concat "." p)
           | exception Value.Type_error m -> error "template attribute %s: %s" k m)
         fields)

(* resolve the source of a copy declaration like P.v1 *)
let copy_source env path =
  match path with
  | pname :: (_ :: _ as rest) ->
    let vname = String.concat "." rest in
    (match List.assoc_opt pname env with
    | Some (Pmatched m) ->
      (match Matched.node m vname with
      | Some v -> Some (pname, v, Graph.node_tuple m.Matched.graph v)
      | None -> error "copy %s.%s: no such pattern variable" pname vname)
    | Some (Pgraph g) ->
      (match Graph.node_by_name g vname with
      | Some v -> Some (pname, v, Graph.node_tuple g v)
      | None -> None)
    | None -> None)
  | _ -> None

(* a unify operand resolves either to specific proto nodes or to the
   whole node range of an included graph (with the range variable name) *)
type operand =
  | Fixed of int
  | Range of string * string  (* include alias, range variable name *)

let rec resolve_operand st env path =
  match path with
  | [ name ] when Hashtbl.mem st.locals name -> Fixed (Hashtbl.find st.locals name)
  | [ pname; vname ] when Hashtbl.mem st.copies (pname, vname_id st env pname vname) ->
    Fixed (Hashtbl.find st.copies (pname, vname_id st env pname vname))
  | [ alias; var ] when Hashtbl.mem st.includes alias ->
    (* a named node of the included graph is a fixed target; otherwise a
       range variable *)
    let g, mapping = Hashtbl.find st.includes alias in
    (match Graph.node_by_name g var with
    | Some v -> Fixed mapping.(v)
    | None -> Range (alias, var))
  | _ -> error "unify: cannot resolve %s" (String.concat "." path)

and vname_id _st env pname vname =
  match List.assoc_opt pname env with
  | Some (Pmatched m) -> Option.value (Matched.node m vname) ~default:(-1)
  | Some (Pgraph g) -> Option.value (Graph.node_by_name g vname) ~default:(-1)
  | None -> -1

(* merged-edge keys: endpoint classes plus the tuple, compared as a
   tuple (attribute order does not count) *)
module Edge_key = Hashtbl.Make (struct
  type t = int * int * Tuple.t

  let equal ((a : int), (b : int), t) (c, d, u) = a = c && b = d && Tuple.equal t u
  let hash ((a : int), (b : int), t) = Hashtbl.hash (a, b, Tuple.hash t)
end)

let instantiate ?(env = []) (decl : Ast.graph_decl) =
  let st = new_state () in
  let penv = param_env env in
  let resolve_endpoint path =
    match path with
    | [ name ] when Hashtbl.mem st.locals name -> Hashtbl.find st.locals name
    | _ ->
      (match copy_source env path with
      | Some (pname, v, _) when Hashtbl.mem st.copies (pname, v) ->
        Hashtbl.find st.copies (pname, v)
      | _ ->
        (match path with
        | [ alias; var ] when Hashtbl.mem st.includes alias ->
          let g, mapping = Hashtbl.find st.includes alias in
          (match Graph.node_by_name g var with
          | Some v -> mapping.(v)
          | None -> error "edge endpoint %s.%s: no such node" alias var)
        | _ -> error "edge endpoint %s: unresolved" (String.concat "." path)))
  in
  let member = function
    | Ast.Nodes decls ->
      List.iter
        (fun (d : Ast.node_decl) ->
          if d.Ast.n_where <> None then
            error "where clauses on template nodes are not allowed";
          match d.Ast.n_copy with
          | Some path ->
            (match copy_source env path with
            | Some (pname, v, tuple) ->
              if not (Hashtbl.mem st.copies (pname, v)) then begin
                let id = add_proto_node st None tuple in
                Hashtbl.add st.copies (pname, v) id
              end
            | None -> error "copy %s: unresolved" (String.concat "." path))
          | None ->
            let tuple = eval_tuple penv d.Ast.n_tuple in
            let id = add_proto_node st d.Ast.n_name tuple in
            (match d.Ast.n_name with
            | Some name ->
              if Hashtbl.mem st.locals name then
                error "duplicate node name %s in template" name;
              Hashtbl.add st.locals name id
            | None -> ()))
        decls
    | Ast.Edges decls ->
      List.iter
        (fun (d : Ast.edge_decl) ->
          if d.Ast.e_where <> None then
            error "where clauses on template edges are not allowed";
          if d.Ast.e_rep <> None then
            error "repeated edges are not allowed in templates";
          let src = resolve_endpoint d.Ast.e_src in
          let dst = resolve_endpoint d.Ast.e_dst in
          add_proto_edge st d.Ast.e_name src dst (eval_tuple penv d.Ast.e_tuple))
        decls
    | Ast.Graph_refs refs ->
      List.iter
        (fun (name, alias) ->
          let alias = Option.value alias ~default:name in
          let g =
            match List.assoc_opt name env with
            | Some (Pgraph g) -> g
            | Some (Pmatched m) -> Matched.to_graph m
            | None -> error "unknown graph variable %s in template" name
          in
          let mapping =
            Array.init (Graph.n_nodes g) (fun v ->
                add_proto_node st None (Graph.node_tuple g v))
          in
          Graph.iter_edges g ~f:(fun _ e ->
              add_proto_edge st None mapping.(e.Graph.src) mapping.(e.Graph.dst)
                e.Graph.etuple);
          if Hashtbl.mem st.includes alias then
            error "duplicate graph alias %s in template" alias;
          Hashtbl.add st.includes alias (g, mapping))
        refs
    | Ast.Unify (paths, where) ->
      let operands = List.map (resolve_operand st env) paths in
      (* where-clauses may reference template-local nodes by name *)
      let proto_tuple id =
        let nodes = Array.of_list (List.rev st.nodes) in
        snd nodes.(id)
      in
      let local_bindings =
        Hashtbl.fold
          (fun name id acc ->
            (name, Pred.env_of_tuple (proto_tuple id)) :: acc)
          st.locals []
      in
      let first, rest =
        match operands with
        | f :: r -> (f, r)
        | [] -> error "unify needs operands"
      in
      let candidates = function
        | Fixed id -> [ (id, None) ]
        | Range (alias, var) ->
          let g, mapping = Hashtbl.find st.includes alias in
          List.init (Graph.n_nodes g) (fun v ->
              (mapping.(v), Some (alias, var, Graph.node_tuple g v)))
      in
      let pred_holds bindings =
        match where with
        | None -> true
        | Some pred ->
          let extra =
            List.filter_map
              (function
                | None -> None
                | Some (alias, var, tuple) ->
                  Some
                    ( alias,
                      fun path ->
                        match path with
                        | v :: rest when v = var ->
                          (match rest with
                          | [ attr ] -> Some (Tuple.get tuple attr)
                          | [] -> Some Value.Null
                          | _ -> None)
                        | _ -> None ))
              bindings
          in
          Pred.holds (Pred.env_extend penv (local_bindings @ extra)) pred
      in
      List.iter
        (fun other ->
          List.iter
            (fun (id1, b1) ->
              List.iter
                (fun (id2, b2) ->
                  if id1 <> id2 && pred_holds [ b1; b2 ] then
                    st.unions <- (id1, id2) :: st.unions)
                (candidates other))
            (candidates first))
        rest
    | Ast.Exports _ -> error "export is not allowed in templates"
    | Ast.Alt _ -> error "disjunction is not allowed in templates"
  in
  List.iter member decl.Ast.g_members;
  if decl.Ast.g_where <> None then
    error "where clauses on template bodies are not allowed";
  (* union-find and final build *)
  let parent = Array.init st.n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  List.iter
    (fun (a, b) ->
      let ra = find a and rb = find b in
      if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb)
    st.unions;
  (* root -> class number, in order of first appearance *)
  let class_index = Array.make st.n (-1) in
  let n_classes = ref 0 in
  for i = 0 to st.n - 1 do
    let r = find i in
    if class_index.(r) < 0 then begin
      class_index.(r) <- !n_classes;
      incr n_classes
    end
  done;
  let cls i = class_index.(find i) in
  let class_size = Array.make !n_classes 0 in
  for i = 0 to st.n - 1 do
    class_size.(cls i) <- class_size.(cls i) + 1
  done;
  let tuples = Array.make !n_classes Tuple.empty in
  let names = Array.make !n_classes None in
  List.iteri
    (fun ri (name, tuple) ->
      let i = st.n - 1 - ri in
      let c = cls i in
      tuples.(c) <- Tuple.union tuples.(c) tuple;
      match names.(c), name with
      | None, Some _ -> names.(c) <- name
      | _ -> ())
    st.nodes;
  let gtuple = eval_tuple penv decl.Ast.g_tuple in
  let b = Graph.Builder.create ?name:decl.Ast.g_name ~tuple:gtuple () in
  Array.iteri (fun c t -> ignore (Graph.Builder.add_node b ?name:names.(c) t)) tuples;
  let seen = Edge_key.create 16 in
  List.iter
    (fun (name, src, dst, tuple) ->
      let s = cls src and d = cls dst in
      let ks, kd = if s <= d then (s, d) else (d, s) in
      let key = (ks, kd, tuple) in
      (* edges unify only when node unification merged their endpoints *)
      let candidate = class_size.(s) > 1 || class_size.(d) > 1 in
      if (not candidate) || not (Edge_key.mem seen key) then begin
        Edge_key.add seen key ();
        ignore (Graph.Builder.add_edge b ?name s d ~tuple)
      end)
    (List.rev st.edges);
  Graph.Builder.build b

(* --- compiled templates ------------------------------------------------------

   A body of only copies, literal-free local nodes and literal-free edges
   has the same shape for every match: the same proto nodes, the same
   copy dedup, the same edge endpoints. [compile] builds that shape once,
   as a skeleton graph, and leaves per match only fetching the copied
   tuples. Copies dedupe by (parameter, variable name) here instead of
   the interpreter's (parameter, data node). The two agree because graph
   node names are unique and matches are injective; a match that binds
   two copied variables to one data node goes to the interpreter. *)

type memo = No_memo | Memo of Gql_matcher.Flat_pattern.t * int

type copy = {
  c_param : string;
  c_var : string;
  c_path : Ast.path;  (* as written, for the error message *)
  c_node : int;  (* skeleton node id *)
  mutable c_memo : memo;
      (* the variable's pattern node id for the last pattern seen: the
         matches of one selection share their pattern *)
}

type skeleton = {
  graph : Graph.t;  (* every tuple empty *)
  copies : copy array;  (* in declaration order *)
  same_param : (int * int) list;  (* copy pairs reading one parameter *)
}

(* the body is outside the skeleton's reach (a data-dependent shape or a
   tuple literal), or is an error the interpreter reports *)
exception Dynamic

let skeleton (decl : Ast.graph_decl) =
  if decl.Ast.g_where <> None || decl.Ast.g_tuple <> None then raise Dynamic;
  let b = Graph.Builder.create ?name:decl.Ast.g_name () in
  let locals = Hashtbl.create 8 and edge_names = Hashtbl.create 8 in
  let targets = Hashtbl.create 8 in  (* (pname, vname) -> copy *)
  let copies = ref [] in
  let endpoint = function
    | [ name ] when Hashtbl.mem locals name -> Hashtbl.find locals name
    | pname :: (_ :: _ as rest) ->
      (match Hashtbl.find_opt targets (pname, String.concat "." rest) with
      | Some c -> c.c_node
      | None -> raise Dynamic)
    | _ -> raise Dynamic
  in
  let member = function
    | Ast.Nodes decls ->
      List.iter
        (fun (d : Ast.node_decl) ->
          if d.Ast.n_where <> None || d.Ast.n_tuple <> None then raise Dynamic;
          match d.Ast.n_copy with
          | Some (pname :: (_ :: _ as rest) as path) ->
            let key = (pname, String.concat "." rest) in
            if not (Hashtbl.mem targets key) then begin
              let c_node = Graph.Builder.add_node b Tuple.empty in
              let c =
                { c_param = pname; c_var = snd key; c_path = path; c_node;
                  c_memo = No_memo }
              in
              Hashtbl.add targets key c;
              copies := c :: !copies
            end
          | Some _ -> raise Dynamic
          | None ->
            (match d.Ast.n_name with
            | Some name when Hashtbl.mem locals name -> raise Dynamic
            | _ -> ());
            let id = Graph.Builder.add_node b ?name:d.Ast.n_name Tuple.empty in
            Option.iter (fun name -> Hashtbl.add locals name id) d.Ast.n_name)
        decls
    | Ast.Edges decls ->
      List.iter
        (fun (d : Ast.edge_decl) ->
          if d.Ast.e_where <> None || d.Ast.e_rep <> None || d.Ast.e_tuple <> None
          then raise Dynamic;
          let src = endpoint d.Ast.e_src and dst = endpoint d.Ast.e_dst in
          (match d.Ast.e_name with
          | Some name when Hashtbl.mem edge_names name -> raise Dynamic
          | Some name -> Hashtbl.add edge_names name ()
          | None -> ());
          ignore (Graph.Builder.add_edge b ?name:d.Ast.e_name src dst))
        decls
    | Ast.Graph_refs _ | Ast.Unify _ | Ast.Exports _ | Ast.Alt _ -> raise Dynamic
  in
  List.iter member decl.Ast.g_members;
  let copies = Array.of_list (List.rev !copies) in
  let same_param = ref [] in
  Array.iteri
    (fun i c ->
      for j = i + 1 to Array.length copies - 1 do
        if String.equal c.c_param copies.(j).c_param then
          same_param := (i, j) :: !same_param
      done)
    copies;
  { graph = Graph.Builder.build b; copies; same_param = !same_param }

let var_index c pattern =
  match c.c_memo with
  | Memo (p, u) when p == pattern -> u
  | _ ->
    let u = Option.value (Matched.var_index pattern c.c_var) ~default:(-1) in
    c.c_memo <- Memo (pattern, u);
    u

let apply sk decl env =
  (* the data node each copy reads: -1 when unresolved, -2 when a
     matched parameter has no such variable *)
  let ids = Array.make (Array.length sk.copies) (-1) in
  let nt = Array.make (Graph.n_nodes sk.graph) Tuple.empty in
  let read i c g v =
    ids.(i) <- v;
    nt.(c.c_node) <- Graph.node_tuple g v
  in
  Array.iteri
    (fun i c ->
      match List.assoc_opt c.c_param env with
      | Some (Pmatched m) ->
        let u = var_index c m.Matched.pattern in
        if u < 0 then ids.(i) <- -2 else read i c m.Matched.graph m.Matched.phi.(u)
      | Some (Pgraph g) -> Option.iter (read i c g) (Graph.node_by_name g c.c_var)
      | None -> ())
    sk.copies;
  if List.exists (fun (i, j) -> ids.(i) >= 0 && ids.(i) = ids.(j)) sk.same_param
  then instantiate ~env decl
  else begin
    (* the first failing copy in declaration order raises, as in the
       interpreter *)
    Array.iteri
      (fun i c ->
        if ids.(i) = -2 then
          error "copy %s.%s: no such pattern variable" c.c_param c.c_var;
        if ids.(i) < 0 then error "copy %s: unresolved" (String.concat "." c.c_path))
      sk.copies;
    Graph.map_node_tuples sk.graph ~f:(fun v _ -> nt.(v))
  end

let compile decl =
  match skeleton decl with
  | sk -> apply sk decl
  | exception Dynamic -> fun env -> instantiate ~env decl
