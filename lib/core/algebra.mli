(** The bulk graph algebra (Section 3.3).

    Operators manipulate {e collections of graphs}: the selection
    operator σ generalizes relational selection to graph pattern
    matching, × and ⋈ combine collections, the composition operator ω
    rewrites matched graphs through templates, and the set operators
    complete the five-operator basis (σ, ×, ω, ∪, −) that is
    relationally complete (Theorem 4.5).

    A collection entry is either a plain graph or a matched graph
    ⟨φ, P, G⟩; matched graphs participate in every operator as the
    graph they annotate. *)

open Gql_graph

type entry =
  | G of Graph.t
  | M of Matched.t

type collection = entry list

val underlying : entry -> Graph.t
(** [G g] → [g]; [M m] → the data graph of the binding. *)

val graphs : collection -> Graph.t list

(** {1 Selection} *)

val select :
  ?strategy:Gql_matcher.Engine.strategy ->
  ?exhaustive:bool ->
  ?limit:int ->
  ?budget:Gql_matcher.Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  patterns:Gql_matcher.Flat_pattern.t list ->
  collection ->
  collection
(** σP(C) = { φP(G) | G ∈ C }: every mapping of every pattern
    derivation against every graph of the collection (one mapping per
    graph when [exhaustive] is false, §3.3). The result entries are
    matched graphs. [patterns] lists the derivations of the (possibly
    recursive) pattern; a graph's matches accumulate across
    derivations. {!select_governed} over flat patterns, without the
    stop reason: on a resource stop the matches found so far are
    returned. *)

val select_governed :
  ?strategy:Gql_matcher.Engine.strategy ->
  ?exhaustive:bool ->
  ?limit:int ->
  ?budget:Gql_matcher.Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?source:
    (Gql_matcher.Flat_pattern.t ->
    Graph.t ->
    Gql_matcher.Engine.source option) ->
  ?after:(Gql_matcher.Search.outcome -> unit) ->
  patterns:Gql_matcher.Rpq.pattern list ->
  collection ->
  collection * Gql_matcher.Budget.stop_reason
(** The selection loop: one {!Gql_matcher.Rpq.run} per (pattern, graph)
    pair. The flat core of each pattern matches through the engine;
    path segments (unbounded repetition) are checked by the RPQ engine.
    One RPQ context per collection entry is shared by every path
    pattern, so a selection builds each graph's reachability index at
    most once. Patterns run cheapest first ({!pattern_order}) and emit
    grouped in program order.

    The [budget] is shared by every run. Returns the aggregate stop
    reason besides the matches: [Exhausted] when every run completed
    (per-run [Hit_limit] truncation included — that is requested
    behaviour, not a resource stop), otherwise the worst resource
    reason observed. A [final] reason (deadline, cancellation)
    short-circuits the remaining runs.

    [source] (default: none for every pair) supplies a (core, graph)
    run's cached plan ({!Gql_matcher.Engine.source}). It is applied to
    each core once per scan, before the loop over the graphs, so work
    that depends only on the pattern is not repeated per graph.
    [after] runs after each pair with its outcome — the exec service
    counts its quantum and yields there. With [metrics] enabled, the
    per-graph match counts feed the [matches_per_graph] histogram, and
    on a tracing instance each run executes inside a ["match"] span. *)

val pattern_order :
  ?strategy:Gql_matcher.Engine.strategy ->
  n_nodes:int ->
  Gql_matcher.Flat_pattern.t list ->
  int list
(** Execution order for a multi-pattern selection: indices into the
    input list, cheapest estimated whole-pattern cost
    ({!Gql_matcher.Order.pattern_cost} under the strategy's cost model)
    first; stable on ties. {!select_governed} runs patterns in this
    order — the System-R style cheapest-first rule lifted from join
    orders to pattern derivations — while emitting results grouped in
    program order, so only budget-stopped runs can observe the
    difference. *)

(** {1 Product and join} *)

val cartesian : collection -> collection -> collection
(** C × D: each output graph contains an (unconnected) copy of a graph
    from C and one from D; its tuple is the union of theirs. *)

val join : on:Pred.t -> collection -> collection -> collection
(** Valued join (Fig 4.10): σ_on(C × D), where [on] sees each
    operand's graph tuple under the operand graph's name (falling back
    to ["left"] / ["right"] for anonymous graphs). *)

(** {1 Composition} *)

val template_param : entry -> Template.param
(** What an entry binds a template's formal parameter to: its match,
    or its graph. *)

val compose :
  template:Ast.graph_decl -> param:string -> collection -> collection
(** ω_T(C): instantiate the single-parameter template for every entry,
    binding the formal parameter [param] to it. The template is
    compiled once ({!Template.compile}) for the whole collection. *)

val compose_n :
  template:Ast.graph_decl -> params:string list -> collection list -> collection
(** The general composition: the Cartesian product of the input
    collections, each tuple of entries bound to the corresponding
    formal parameter. *)

(** {1 Set operators}

    Entry equality is attributed-graph isomorphism ({!Iso.isomorphic}),
    suitable for the small result graphs the algebra manipulates. *)

val union : collection -> collection -> collection
val difference : collection -> collection -> collection
val intersection : collection -> collection -> collection
val distinct : collection -> collection

(** {1 Relational simulation (Theorem 4.5)}

    A relation is encoded as a collection of single-node graphs whose
    node carries the tuple. *)

val rel_of_tuples : Tuple.t list -> collection
val tuples_of_rel : collection -> Tuple.t list
(** Raises [Invalid_argument] if some entry is not a single-node graph. *)

val rel_project : string list -> collection -> collection
val rel_rename : (string * string) list -> collection -> collection
val rel_select : Pred.t -> collection -> collection
(** Predicate over the node's attributes. *)

val rel_product : collection -> collection -> collection
(** Pairs the node tuples into single-node graphs (attribute union;
    clashing names must be renamed first, as in RA). *)
