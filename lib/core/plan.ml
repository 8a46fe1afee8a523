open Gql_graph
module Budget = Gql_matcher.Budget

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type select = {
  pname : string;
  patterns : Gql_matcher.Rpq.pattern list;
  enum_stopped : Budget.stop_reason;
  exhaustive : bool;
  where : Pred.t option;
  source : string;
}

type view = {
  name : string;
  materialized : bool;
  def : Ast.flwr;
  sel : select;
  compose : Template.env -> Graph.t;
}

type statement =
  | Assign of string * Ast.template
  | Return of select * Ast.template
  | Fold of string * select * Ast.template
  | Write of Ast.dml
  | Path of Ast.path_query
  | Create_view of view
  | Drop_view of string

type t = statement list
type scope = (string * Ast.graph_decl) list

let lookup scope n =
  match List.assoc_opt n scope with
  | Some d -> d
  | None -> error "unknown pattern %s" n

let compile_select ?max_depth ?(max_derivations = 4096) ?budget scope
    (f : Ast.flwr) =
  let decl, pname =
    match f.Ast.f_pattern with
    | `Named n -> (lookup scope n, n)
    | `Inline d -> (d, Option.value d.Ast.g_name ~default:"P")
  in
  (* enumerate derivations lazily, polling the budget between them: a
     branching recursive def never materializes exponentially many
     derivations before an admission check, and hitting the cap is a
     typed error instead of silent loss *)
  let truncated = ref false in
  let rec take n acc seq =
    match match budget with Some b -> Budget.poll b | None -> None with
    | Some r -> (List.rev acc, r)
    | None ->
      (match Seq.uncons seq with
      | None -> (List.rev acc, Budget.Exhausted)
      | Some (p, rest) ->
        if n >= max_derivations then
          error
            "pattern %s has more than %d derivations; bound the recursion \
             or raise the derivation cap"
            pname max_derivations
        else take (n + 1) (p :: acc) rest)
  in
  let patterns, enum_stopped =
    take 0 []
      (Motif.path_patterns
         ~defs:(fun n -> List.assoc_opt n scope)
         ?max_depth ~truncated decl)
  in
  if patterns = [] && enum_stopped = Budget.Exhausted then
    if !truncated then
      error
        "pattern %s has no derivation within the depth cap (recursive \
         references truncated; use unbounded repetition or raise max_depth)"
        pname
    else error "pattern %s has no derivation" pname;
  {
    pname;
    patterns;
    enum_stopped;
    exhaustive = f.Ast.f_exhaustive;
    where = f.Ast.f_where;
    source = f.Ast.f_source;
  }

let compile_view ?max_depth ?max_derivations ?budget ?(scope = [])
    (v : Ast.view_def) =
  let name = v.Ast.v_name and q = v.Ast.v_query in
  let template =
    match q.Ast.f_body with
    | Ast.Return (Ast.Tgraph d) -> d
    | Ast.Return (Ast.Tvar x) ->
      error
        "view %s: the return template references variable %s (the \
         definition must be self-contained)"
        name x
    | Ast.Let (x, _) ->
      error
        "view %s: the defining query must return (let %s folds cannot be \
         maintained)"
        name x
  in
  (match Ast.view_of_source q.Ast.f_source with
  | Some src ->
    error "view %s cannot be defined over view %S (views read base docs only)"
      name src
  | None -> ());
  (* resolve a named pattern now, so the stored definition is
     self-contained and replayable without the defining program *)
  let def =
    match q.Ast.f_pattern with
    | `Named n ->
      let d = lookup scope n in
      { q with Ast.f_pattern = `Inline { d with Ast.g_name = Some n } }
    | `Inline _ -> q
  in
  {
    name;
    materialized = v.Ast.v_materialized;
    def;
    sel = compile_select ?max_depth ?max_derivations ?budget [] def;
    compose = Template.compile template;
  }

let compile_statement ?max_depth ?max_derivations ?budget scope stmt =
  let select = compile_select ?max_depth ?max_derivations ?budget scope in
  match stmt with
  | Ast.Sgraph g ->
    (match g.Ast.g_name with
    | Some name -> (scope @ [ (name, g) ], None)
    | None -> error "top-level graph declarations must be named")
  | Ast.Sassign (v, t) -> (scope, Some (Assign (v, t)))
  | Ast.Sflwr f ->
    ( scope,
      Some
        (match f.Ast.f_body with
        | Ast.Return t -> Return (select f, t)
        | Ast.Let (v, t) -> Fold (v, select f, t)) )
  | Ast.Sdml d -> (scope, Some (Write d))
  | Ast.Spath q -> (scope, Some (Path q))
  | Ast.Screate_view v ->
    ( scope,
      Some
        (Create_view
           (compile_view ?max_depth ?max_derivations ?budget ~scope v)) )
  | Ast.Sdrop_view name -> (scope, Some (Drop_view name))

let compile ?max_depth ?max_derivations program =
  let _, plan =
    List.fold_left
      (fun (scope, acc) stmt ->
        let scope, node =
          compile_statement ?max_depth ?max_derivations scope stmt
        in
        (scope, Option.fold ~none:acc ~some:(fun n -> n :: acc) node))
      ([], []) program
  in
  List.rev plan

let admits sel m =
  match sel.where with
  | None -> true
  | Some pred ->
    let env = Matched.env m in
    Pred.holds (Pred.env_extend env [ (sel.pname, env) ]) pred

(* --- printing (EXPLAIN) --- *)

let pp_template ppf = function
  | Ast.Tvar v -> Format.pp_print_string ppf v
  | Ast.Tgraph g ->
    Format.fprintf ppf "T%s"
      (match g.Ast.g_name with Some n -> "_" ^ n | None -> "")

let pp_select ppf { pname; patterns; exhaustive; where; source; _ } =
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
    (match where with
    | Some p -> Format.asprintf ", where %a" Pred.pp p
    | None -> "")
    Ast.pp_source source

let pp_statement ppf = function
  | Assign (v, t) -> Format.fprintf ppf "%s := %a" v pp_template t
  | Return (sel, t) ->
    Format.fprintf ppf "return ω[%a/%s](%a)" pp_template t sel.pname pp_select
      sel
  | Fold (v, sel, t) ->
    Format.fprintf ppf "%s := fold-ω[%a/%s; %s](%a, {%s})" v pp_template t
      sel.pname v pp_select sel v
  | Write d -> Format.fprintf ppf "write %a" Ast.pp_dml d
  | Path q -> Format.fprintf ppf "path %a" Ast.pp_path_query q
  | Create_view { name; materialized; def; sel; _ } ->
    Format.fprintf ppf "%sview %s := ω[%a/%s](%a)"
      (if materialized then "materialized " else "")
      name pp_template
      (match def.Ast.f_body with Ast.Return t | Ast.Let (_, t) -> t)
      sel.pname pp_select sel
  | Drop_view name -> Format.fprintf ppf "drop view %s" name

(* one line per statement, however long *)
let pp ppf plan =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_statement)
    plan
