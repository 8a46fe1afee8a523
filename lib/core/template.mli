(** Graph templates and their instantiation (Definition 4.4).

    A template has formal parameters (graph patterns or graph
    variables) and a body declared in the graph syntax; given actual
    parameters — matched graphs for patterns, plain graphs for
    variables — instantiation produces a real graph.

    Template bodies may:
    - declare fresh nodes/edges whose attribute values are expressions
      over the parameters ([node v1 <label=P.v1.name>;], Fig 4.11);
    - {e copy} matched elements ([node P.v1, P.v2;], Fig 4.12) — the
      same source element copied twice yields one node;
    - {e include} whole graphs ([graph C;]);
    - unify nodes, optionally guarded: [unify P.v1, C.v1 where
      P.v1.name = C.v1.name;] merges the copy of [P.v1] with every node
      of the included graph [C] satisfying the predicate ([v1] acts as
      a variable ranging over [C]'s nodes).

    As everywhere in the motif language, edges whose endpoints are
    unified and whose tuples are equal merge automatically. *)

open Gql_graph

exception Error of string

type param =
  | Pgraph of Graph.t
  | Pmatched of Matched.t

type env = (string * param) list

val compile : Ast.graph_decl -> env -> Graph.t
(** [compile decl] resolves the body's structure once; the returned
    function instantiates it for one set of actual parameters, with the
    same result and the same {!Error} as [instantiate ~env decl]. Apply
    [compile decl] once per statement or view and the result once per
    match.

    A body of only [node] and [edge] declarations without tuple
    literals has one shape for every match. It compiles to a skeleton
    graph built once; each match then fetches its copied tuples
    (through [phi], by variable index) and gets the skeleton back with
    those tuples swapped in — adjacency, names and everything else are
    shared (graphs are immutable). A body with [unify], [graph]
    includes or a [where] clause has a data-dependent shape and, like a
    body with tuple literals, is interpreted per match by
    {!instantiate}. *)

val instantiate : ?env:env -> Ast.graph_decl -> Graph.t
(** The reference interpreter: walks the body for one set of
    parameters. Raises {!Error} on unknown references, pattern-only
    constructs (disjunction, export), or attribute expressions that do
    not evaluate. *)

val param_env : env -> Pred.env
(** The expression environment the parameters induce: [P.v1.name]
    resolves through matched bindings, [C.attr] through graph tuples. *)
