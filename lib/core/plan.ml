open Gql_graph

type expr =
  | Source of string
  | Var of string
  | Select of {
      pname : string;
      patterns : Gql_matcher.Rpq.pattern list;
      exhaustive : bool;
      post : Pred.t option;
      input : expr;
    }
  | Compose of {
      template : Ast.template;
      param : string;
      input : expr;
    }
  | Fold_compose of {
      template : Ast.template;
      param : string;
      var : string;
      input : expr;
    }

type statement =
  | Assign of string * expr
  | Output of expr
  | Write of Ast.dml
  | Path of Ast.path_query
  | Create_view of { cv_name : string; cv_materialized : bool; cv_body : expr }
  | Drop_view of string

type t = statement list

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let compile ?max_depth ?(max_derivations = 4096) (program : Ast.program) =
  let defs = Hashtbl.create 8 in
  let lookup name = Hashtbl.find_opt defs name in
  let compile_flwr (f : Ast.flwr) =
    let decl, pname =
      match f.Ast.f_pattern with
      | `Named n ->
        (match lookup n with
        | Some d -> (d, n)
        | None -> error "unknown pattern %s" n)
      | `Inline d -> (d, Option.value d.Ast.g_name ~default:"P")
    in
    let truncated = ref false in
    let patterns =
      (* enumerate lazily, capped: a runaway grammar fails with a typed
         error instead of an unbounded materialization *)
      let rec take n acc seq =
        match Seq.uncons seq with
        | None -> List.rev acc
        | Some (p, rest) ->
          if n >= max_derivations then
            error "pattern %s has more than %d derivations; bound the recursion or raise the derivation cap"
              pname max_derivations
          else take (n + 1) (p :: acc) rest
      in
      take 0 []
        (Motif.path_patterns ~defs:lookup ?max_depth ~truncated decl)
    in
    if patterns = [] then
      if !truncated then
        error "pattern %s has no derivation within the depth cap (recursive references truncated; use unbounded repetition or raise max_depth)"
          pname
      else error "pattern %s has no derivation" pname;
    let selection =
      Select
        {
          pname;
          patterns;
          exhaustive = f.Ast.f_exhaustive;
          post = f.Ast.f_where;
          input = Source f.Ast.f_source;
        }
    in
    match f.Ast.f_body with
    | Ast.Return t ->
      Output (Compose { template = t; param = pname; input = selection })
    | Ast.Let (v, t) ->
      Assign (v, Fold_compose { template = t; param = pname; var = v; input = selection })
  in
  List.filter_map
    (fun stmt ->
      match stmt with
      | Ast.Sgraph g ->
        (match g.Ast.g_name with
        | Some name ->
          Hashtbl.replace defs name g;
          None
        | None -> error "top-level graph declarations must be named")
      | Ast.Sassign (v, t) -> Some (Assign (v, Compose { template = t; param = "_"; input = Var "_unit" }))
      | Ast.Sflwr f -> Some (compile_flwr f)
      | Ast.Sdml d -> Some (Write d)
      | Ast.Spath q -> Some (Path q)
      | Ast.Screate_view v ->
        (match compile_flwr v.Ast.v_query with
        | Output e ->
          Some
            (Create_view
               {
                 cv_name = v.Ast.v_name;
                 cv_materialized = v.Ast.v_materialized;
                 cv_body = e;
               })
        | _ -> error "view %s: the defining query must end in a return (let folds cannot be maintained)" v.Ast.v_name)
      | Ast.Sdrop_view name -> Some (Drop_view name))
    program

(* --- printing (EXPLAIN) --- *)

let pp_template ppf = function
  | Ast.Tvar v -> Format.pp_print_string ppf v
  | Ast.Tgraph g ->
    Format.fprintf ppf "T%s"
      (match g.Ast.g_name with Some n -> "_" ^ n | None -> "")

let rec pp_expr ppf = function
  | Source s -> Ast.pp_source ppf s
  | Var v -> Format.pp_print_string ppf v
  | Select { pname; patterns; exhaustive; post; input } ->
    let n_segments =
      List.fold_left
        (fun n p -> n + List.length p.Gql_matcher.Rpq.segments)
        0 patterns
    in
    Format.fprintf ppf "σ[%s%s%s%s%s](%a)" pname
      (if List.length patterns > 1 then
         Printf.sprintf ", %d derivations" (List.length patterns)
       else "")
      (if n_segments > 0 then
         Printf.sprintf ", %d path segment%s" n_segments
           (if n_segments > 1 then "s" else "")
       else "")
      (if exhaustive then ", exhaustive" else "")
      (match post with
      | Some p -> Format.asprintf ", where %a" Pred.pp p
      | None -> "")
      pp_expr input
  | Compose { template; param; input } ->
    Format.fprintf ppf "ω[%a/%s](%a)" pp_template template param pp_expr input
  | Fold_compose { template; param; var; input } ->
    Format.fprintf ppf "fold-ω[%a/%s; %s](%a, {%s})" pp_template template param
      var pp_expr input var

let pp ppf plan =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut
    (fun ppf -> function
      | Assign (v, e) -> Format.fprintf ppf "%s := %a" v pp_expr e
      | Output e -> Format.fprintf ppf "return %a" pp_expr e
      | Write d -> Format.fprintf ppf "write %a" Ast.pp_dml d
      | Path q -> Format.fprintf ppf "path %a" Ast.pp_path_query q
      | Create_view { cv_name; cv_materialized; cv_body } ->
        Format.fprintf ppf "%sview %s := %a"
          (if cv_materialized then "materialized " else "")
          cv_name pp_expr cv_body
      | Drop_view name -> Format.fprintf ppf "drop view %s" name)
    ppf plan

(* --- optimization: predicate pushdown --- *)

module FP = Gql_matcher.Flat_pattern

let push_into_pattern pname (p : FP.t) post =
  (* the FLWR filter sees both [P.v1.attr] and [v1.attr] paths *)
  let stripped = Pred.strip_prefix pname post in
  let k = FP.size p in
  let pg = p.FP.structure in
  let node_vars = List.init k (FP.var_name p) in
  let edge_vars =
    List.init (Graph.n_edges pg) (fun e ->
        match Graph.edge_name pg e with
        | Some n -> n
        | None -> Printf.sprintf "e%d" e)
  in
  let per_var, residual =
    Pred.split_by_root ~vars:(node_vars @ edge_vars) stripped
  in
  if per_var = [] then (p, post)
  else begin
    let node_preds = Array.copy p.FP.node_preds in
    let edge_preds = Array.copy p.FP.edge_preds in
    List.iter
      (fun (var, pred) ->
        match List.find_index (String.equal var) node_vars with
        | Some u -> node_preds.(u) <- Pred.( && ) node_preds.(u) pred
        | None ->
          (match List.find_index (String.equal var) edge_vars with
          | Some e -> edge_preds.(e) <- Pred.( && ) edge_preds.(e) pred
          | None -> ()))
      per_var;
    ( { p with FP.node_preds; edge_preds },
      if Pred.equal residual Pred.True then Pred.True else residual )
  end

let rec optimize_expr = function
  | (Source _ | Var _) as e -> e
  (* only exhaustive selections: under take-one-mapping semantics the
     filter's position is observable *)
  | Select ({ pname; patterns = [ p ]; post = Some post; input; exhaustive = true } as s) ->
    (* pushdown touches only the flat core; path segments have no
       user-visible names, so the filter cannot reference them *)
    let core', residual = push_into_pattern pname p.Gql_matcher.Rpq.core post in
    Select
      {
        s with
        patterns = [ { p with Gql_matcher.Rpq.core = core' } ];
        post = (if Pred.equal residual Pred.True then None else Some residual);
        input = optimize_expr input;
      }
  | Select s -> Select { s with input = optimize_expr s.input }
  | Compose c -> Compose { c with input = optimize_expr c.input }
  | Fold_compose f -> Fold_compose { f with input = optimize_expr f.input }

let optimize plan =
  List.map
    (function
      | Assign (v, e) -> Assign (v, optimize_expr e)
      | Output e -> Output (optimize_expr e)
      | Create_view c -> Create_view { c with cv_body = optimize_expr c.cv_body }
      | (Write _ | Path _ | Drop_view _) as s -> s)
    plan

(* --- execution --- *)

type state = {
  mutable vars : (string * Graph.t) list;
  mutable last : Algebra.collection option;
}

let execute ?(docs = []) ?strategy plan =
  let st = { vars = []; last = None } in
  let vars_env () = List.map (fun (name, g) -> (name, Template.Pgraph g)) st.vars in
  (* compiled once per statement, applied per entry *)
  let compile = function
    | Ast.Tgraph decl -> Template.compile decl
    | Ast.Tvar v ->
      fun _ ->
        (match List.assoc_opt v st.vars with
        | Some g -> g
        | None -> error "unknown variable %s" v)
  in
  let filter_post pname post entries =
    match post with
    | None -> entries
    | Some pred ->
      List.filter
        (function
          | Algebra.M m ->
            Pred.holds
              (Pred.env_extend (Matched.env m) [ (pname, Matched.env m) ])
              pred
          | Algebra.G _ -> true)
        entries
  in
  (* evaluates to a collection; [Fold_compose] additionally rebinds its
     variable as a side effect, like the FLWR let *)
  let rec eval = function
    | Source name ->
      (match List.assoc_opt name docs with
      | Some gs -> List.map (fun g -> Algebra.G g) gs
      | None ->
        (match List.assoc_opt name st.vars with
        | Some g -> [ Algebra.G g ]
        | None -> error "unknown collection %S" name))
    | Var "_unit" -> [ Algebra.G (Graph.of_edges ~n:0 []) ]
    | Var v ->
      (match List.assoc_opt v st.vars with
      | Some g -> [ Algebra.G g ]
      | None -> error "unknown variable %s" v)
    | Select { pname; patterns; exhaustive; post; input } ->
      let entries = eval input in
      fst (Algebra.select_governed ?strategy ~exhaustive ~patterns entries)
      |> filter_post pname post
    | Compose { template; param; input } ->
      let entries = eval input in
      let instantiate = compile template in
      let vars = vars_env () in
      List.map
        (fun entry ->
          Algebra.G (instantiate ((param, Algebra.template_param entry) :: vars)))
        entries
    | Fold_compose { template; param; var; input } ->
      let matches = eval input in
      let instantiate = compile template in
      List.iter
        (fun entry ->
          let g =
            instantiate ((param, Algebra.template_param entry) :: vars_env ())
          in
          st.vars <- (var, g) :: List.remove_assoc var st.vars)
        matches;
      (match List.assoc_opt var st.vars with
      | Some g -> [ Algebra.G g ]
      | None -> [])
  in
  List.iter
    (fun stmt ->
      match stmt with
      | Assign (v, (Compose { template; param = "_"; input = Var "_unit" } : expr)) ->
        (* plain assignment *)
        let g = compile template (vars_env ()) in
        st.vars <- (v, g) :: List.remove_assoc v st.vars
      | Assign (v, e) ->
        (match eval e with
        | [ Algebra.G g ] -> st.vars <- (v, g) :: List.remove_assoc v st.vars
        | [] -> ()
        | _ -> error "assignment of a multi-graph collection to %s" v)
      | Output e -> st.last <- Some (eval e)
      | Write _ ->
        (* writes need a durability sink; only Eval.run carries one *)
        error "DML statements are not executable from a compiled plan"
      | Path _ ->
        (* path queries drive the RPQ engine directly, outside the
           algebra; only Eval.run evaluates them *)
        error "path queries are not executable from a compiled plan"
      | Create_view _ | Drop_view _ ->
        (* view DDL needs the writer sink and the exec-layer maintainer *)
        error "view statements are not executable from a compiled plan")
    plan;
  {
    Eval.defs = [];
    vars = st.vars;
    last = st.last;
    stopped = Gql_matcher.Budget.Exhausted;
    writes = 0;
  }
