(** GraphQL — the public facade.

    One-stop entry points over the parser ({!Parser}), the motif
    derivation ({!Motif}), the algebra ({!Algebra}) and the FLWR
    evaluator ({!Eval}); see those modules for the full APIs, and
    [Gql_matcher.Engine] for the tunable access methods. *)

open Gql_graph

(** All parse/derivation/evaluation errors are raised as {!Error.E}
    values of the unified taxonomy: parse errors carry line/column,
    semantic errors map to [Error.Eval], store corruption to
    [Error.Corrupt]. Render with {!Error.to_string}; front ends exit
    with {!Error.exit_code}. *)

val parse_program : string -> Ast.program
val parse_graph_decl : string -> Ast.graph_decl

val graph_of_string : ?defs:(string * Ast.graph_decl) list -> string -> Graph.t
(** Parse a ground [graph { ... }] literal into a data graph. *)

val collection_of_string : string -> Graph.t list
(** The collection a [.gql] file declares: one ground data graph per
    top-level [graph] declaration, in order. A declaration may
    reference another by name ([graph I as X;]); when two share a
    name, the reference resolves to the first. Name lookups are
    logarithmic, so loading time grows with the size of the derived
    graphs, not with its square. *)

val pattern_of_string :
  ?defs:(string * Ast.graph_decl) list ->
  ?max_depth:int ->
  string ->
  Gql_matcher.Flat_pattern.t
(** The first derivation of the pattern (the only one for
    non-recursive patterns without disjunction). *)

val patterns_of_string :
  ?defs:(string * Ast.graph_decl) list ->
  ?max_depth:int ->
  string ->
  Gql_matcher.Flat_pattern.t list
(** All derivations (recursion bounded by [max_depth]). Raises on
    unbounded repetition — use {!path_patterns_of_string}. *)

val path_patterns_of_string :
  ?defs:(string * Ast.graph_decl) list ->
  ?max_depth:int ->
  ?truncated:bool ref ->
  string ->
  Gql_matcher.Rpq.pattern list
(** All derivations as path patterns: flat core plus the
    unbounded-repetition segments, which are evaluated by
    [Gql_matcher.Rpq] instead of being unrolled. *)

val find_matches :
  ?strategy:Gql_matcher.Engine.strategy ->
  ?exhaustive:bool ->
  ?limit:int ->
  ?budget:Gql_matcher.Budget.t ->
  pattern:string ->
  Graph.t ->
  Matched.t list
(** Parse the pattern and run the selection operator against one
    graph. On a budget stop the matches found so far are returned. *)

val count_matches :
  ?strategy:Gql_matcher.Engine.strategy -> pattern:string -> Graph.t -> int

val run_query :
  ?docs:Eval.docs ->
  ?strategy:Gql_matcher.Engine.strategy ->
  ?max_depth:int ->
  ?max_derivations:int ->
  ?budget:Gql_matcher.Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?selector:Eval.selector ->
  ?writer:(Eval.write -> unit) ->
  string ->
  Eval.result
(** Parse and evaluate a whole program; [budget] governs all its
    selections end to end (check [result.stopped]); [metrics] records
    spans and counters across every phase (render with
    [Gql_obs.Metrics.pp] / [to_json] — this is what
    [gqlsh explain --analyze] prints). DML statements are applied to
    the in-run doc view and reported to [writer] (see
    {!Eval.write}). *)
