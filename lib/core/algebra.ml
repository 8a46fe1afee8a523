open Gql_graph
module Engine = Gql_matcher.Engine
module Budget = Gql_matcher.Budget
module Rpq = Gql_matcher.Rpq

type entry =
  | G of Graph.t
  | M of Matched.t

type collection = entry list

let underlying = function
  | G g -> g
  | M m -> m.Matched.graph

let graphs c = List.map underlying c

(* --- selection ------------------------------------------------------------ *)

(* The graph-side analogue of the sqlsim System-R enumerator's
   cheapest-access-first rule, one level up: rank the patterns of a
   multi-pattern program (e.g. the derivations of a recursive motif) by
   their whole-pattern estimated cost so the cheap ones run — and under
   a budget, complete — first. Stable, so equal-cost patterns keep
   their program order. *)
let pattern_order ?strategy ~n_nodes patterns =
  let model =
    match strategy with
    | Some s ->
      Option.value s.Engine.cost_model
        ~default:(Gql_matcher.Cost.Constant Gql_matcher.Cost.default_constant)
    | None -> Gql_matcher.Cost.Constant Gql_matcher.Cost.default_constant
  in
  let costed =
    List.mapi
      (fun i p -> (i, Gql_matcher.Order.pattern_cost ~model p ~n_nodes))
      patterns
  in
  List.map fst
    (List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) costed)

(* The one (pattern x graph) loop. A budget is shared across every run
   of a selection. Per-run [Hit_limit] stops are normal truncation and
   do not taint the aggregate reason; a [final] reason (expired
   deadline, cancelled token) short-circuits the remaining runs —
   re-entering the engine would only burn a poll to learn the same
   thing. [Step_budget] is per-run, so later entries still get their
   own visit allowance. Patterns execute in costed order and emit
   grouped in program order. *)
let select_governed ?strategy ?(exhaustive = true) ?limit
    ?(budget = Budget.unlimited) ?(metrics = Gql_obs.Metrics.disabled)
    ?(source = fun _ _ -> None) ?(after = ignore) ~patterns c =
  let module M_ = Gql_obs.Metrics in
  let entries = Array.of_list c in
  (* one RPQ context (one lazily built reachability index) per entry,
     shared by every path pattern of the selection *)
  let ctxs = Array.make (Array.length entries) None in
  let ctx_of i g =
    match ctxs.(i) with
    | Some cx -> cx
    | None ->
      let cx = Rpq.ctx g in
      ctxs.(i) <- Some cx;
      cx
  in
  let stopped = ref Budget.Exhausted in
  let pats = Array.of_list patterns in
  let np = Array.length pats in
  let ranked =
    if np <= 1 then List.init np Fun.id
    else
      let n_nodes =
        List.fold_left (fun m e -> max m (Graph.n_nodes (underlying e))) 1 c
      in
      pattern_order ?strategy ~n_nodes
        (List.map (fun p -> p.Rpq.core) patterns)
  in
  let per_pattern = Array.make np [] in
  List.iter
    (fun pi ->
      if not (Budget.final !stopped) then begin
        let p = pats.(pi) in
        (* the source's per-pattern work (a plan key, say) happens once
           per scan, not once per graph *)
        let source = source p.Rpq.core in
        let rev_out = ref [] in
        Array.iteri
          (fun i entry ->
            if not (Budget.final !stopped) then begin
              let g = underlying entry in
              let ctx = if Rpq.is_flat p then None else Some (ctx_of i g) in
              let outcome =
                (* one "match" span per (pattern, graph) run; same-name
                   siblings aggregate in the span forest, so a
                   1000-graph collection renders as a single
                   match × 1000 line *)
                M_.with_span metrics "match" (fun () ->
                    Rpq.run ?strategy ~exhaustive ?limit ~budget ~metrics ?ctx
                      ?source:(source g) p g)
              in
              if M_.enabled metrics then
                M_.observe metrics M_.Matches_per_graph
                  outcome.Gql_matcher.Search.n_found;
              (match outcome.Gql_matcher.Search.stopped with
              | Budget.Exhausted | Budget.Hit_limit -> ()
              | r -> stopped := Budget.worst !stopped r);
              List.iter
                (fun phi ->
                  rev_out := M (Matched.make p.Rpq.core g phi) :: !rev_out)
                outcome.Gql_matcher.Search.mappings;
              after outcome
            end)
          entries;
        per_pattern.(pi) <- List.rev !rev_out
      end)
    ranked;
  (List.concat (Array.to_list per_pattern), !stopped)

let select ?strategy ?exhaustive ?limit ?budget ?metrics ~patterns c =
  fst
    (select_governed ?strategy ?exhaustive ?limit ?budget ?metrics
       ~patterns:(List.map Rpq.flat patterns) c)

(* --- product and join ------------------------------------------------------ *)

let cartesian c d =
  List.concat_map
    (fun e1 ->
      let g1 = underlying e1 in
      List.map
        (fun e2 ->
          let g2 = underlying e2 in
          let tuple = Tuple.union (Graph.tuple g1) (Graph.tuple g2) in
          let g, _, _ = Graph.disjoint_union ~tuple g1 g2 in
          G g)
        d)
    c

let join ~on c d =
  List.concat_map
    (fun e1 ->
      let g1 = underlying e1 in
      List.filter_map
        (fun e2 ->
          let g2 = underlying e2 in
          let name g default = Option.value (Graph.name g) ~default in
          let env =
            Pred.env_scope
              [
                (name g1 "left", Pred.env_of_tuple (Graph.tuple g1));
                (name g2 "right", Pred.env_of_tuple (Graph.tuple g2));
              ]
          in
          if Pred.holds env on then begin
            let tuple = Tuple.union (Graph.tuple g1) (Graph.tuple g2) in
            let g, _, _ = Graph.disjoint_union ~tuple g1 g2 in
            Some (G g)
          end
          else None)
        d)
    c

(* --- composition ------------------------------------------------------------ *)

let template_param = function
  | G g -> Template.Pgraph g
  | M m -> Template.Pmatched m

let compose ~template ~param c =
  let instantiate = Template.compile template in
  List.map (fun entry -> G (instantiate [ (param, template_param entry) ])) c

let compose_n ~template ~params collections =
  if List.length params <> List.length collections then
    invalid_arg "Algebra.compose_n: params/collections arity mismatch";
  let rec product = function
    | [] -> [ [] ]
    | c :: rest ->
      let tails = product rest in
      List.concat_map (fun e -> List.map (fun t -> e :: t) tails) c
  in
  let instantiate = Template.compile template in
  List.map
    (fun combo -> G (instantiate (List.map2 (fun p e -> (p, template_param e)) params combo)))
    (product collections)

(* --- set operators ------------------------------------------------------------ *)

let entry_equal a b = Iso.isomorphic (underlying a) (underlying b)

let distinct c =
  List.fold_left
    (fun acc e -> if List.exists (entry_equal e) acc then acc else e :: acc)
    [] c
  |> List.rev

let union c d = distinct (c @ d)

let difference c d =
  List.filter (fun e -> not (List.exists (entry_equal e) d)) (distinct c)

let intersection c d =
  List.filter (fun e -> List.exists (entry_equal e) d) (distinct c)

(* --- relational simulation ------------------------------------------------------------ *)

let rel_of_tuples tuples =
  List.map
    (fun t ->
      let b = Graph.Builder.create () in
      ignore (Graph.Builder.add_node b ~name:"t" t);
      G (Graph.Builder.build b))
    tuples

let the_tuple entry =
  let g = underlying entry in
  if Graph.n_nodes g <> 1 then
    invalid_arg "Algebra.tuples_of_rel: entry is not a single-node graph";
  Graph.node_tuple g 0

let tuples_of_rel c = List.map the_tuple c

let map_rel f c = rel_of_tuples (List.map (fun e -> f (the_tuple e)) c)

let rel_project attrs c = map_rel (fun t -> Tuple.project t attrs) c
let rel_rename mapping c = map_rel (fun t -> Tuple.rename t mapping) c

let rel_select pred c =
  List.filter (fun e -> Pred.holds (Pred.env_of_tuple (the_tuple e)) pred) c

let rel_product c d =
  List.concat_map
    (fun e1 ->
      let t1 = the_tuple e1 in
      List.map (fun e2 -> Tuple.union t1 (the_tuple e2)) d)
    c
  |> rel_of_tuples
