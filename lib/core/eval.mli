(** Evaluation of GraphQL programs (FLWR expressions, §3.4).

    A program is a sequence of statements:
    - [graph P { ... } where ...;] defines a named pattern (and, when
      ground, a graph usable as data);
    - [C := graph { ... };] assigns an instantiated template to a
      variable;
    - [for P [exhaustive] in doc("D") [where ...] (return T | let C :=
      T);] iterates the selection σP over collection D; [return]
      emits one instantiated graph per match, [let] folds the matches
      through the template sequentially, rebinding the variable at each
      step — the semantics of the co-authorship example (Fig 4.12/4.13).

    Without [exhaustive], selection takes one mapping per collection
    graph (§3.3). *)

open Gql_graph

exception Error of string
(** Compile and evaluation errors alike: the same exception as
    {!Plan.Error}. *)

type docs = (string * Graph.t list) list
(** The [doc("name")] data sources. *)

(** One applied DML statement, as reported to the [?writer] sink of
    {!run}. The evaluator applies writes to its in-run view of the
    docs (later statements read their own writes); the sink is where
    durability happens — the CLI and the batch service append the ops
    to the store's transaction log and refresh their caches. *)
type write =
  | W_update of {
      source : string;  (** the doc collection name *)
      index : int;  (** position of the graph within the collection *)
      old_graph : Graph.t;
      new_graph : Graph.t;
      ops : Mutate.op list;
      delta : Mutate.delta;  (** dirty set for incremental maintenance *)
    }
  | W_insert of { source : string; new_graph : Graph.t }
  | W_remove of { source : string; index : int; old_graph : Graph.t }
  | W_create_view of {
      name : string;
      materialized : bool;
      def : Ast.flwr;
          (** the defining query, pattern resolved inline so the
              definition is self-contained (persistable and replayable
              without the defining program) *)
      graphs : Graph.t list;  (** the view's result at creation time *)
      epoch : int;
          (** refresh generation: [0] at creation; the exec-layer
              maintainer re-emits the event with a bumped epoch when a
              committed write refreshes the materialization *)
    }
  | W_drop_view of { name : string }

type result = {
  defs : (string * Ast.graph_decl) list;  (** named declarations, in order *)
  vars : (string * Graph.t) list;  (** variable bindings after the run *)
  last : Algebra.collection option;  (** the last [return] collection *)
  stopped : Gql_matcher.Budget.stop_reason;
      (** [Exhausted] when every selection ran to completion (per-graph
          [Hit_limit] truncation included); the worst resource reason
          observed otherwise — the program's outputs are then built
          from partial match sets. *)
  writes : int;  (** DML statements applied *)
}

type selector =
  exhaustive:bool ->
  patterns:Gql_matcher.Rpq.pattern list ->
  Algebra.collection ->
  Algebra.collection * Gql_matcher.Budget.stop_reason
(** How a FLWR statement's selection σP is executed: given the path
    patterns (flat core + unbounded-repetition segments) derived from
    the pattern and the source collection, return the matched entries
    plus the aggregate stop reason. The default is
    {!Algebra.select_governed}. The batch service ([Gql_exec]) runs the
    same loop with its plan cache as the [source] and a quantum-yielding
    [after] hook. *)

val run :
  ?docs:docs ->
  ?strategy:Gql_matcher.Engine.strategy ->
  ?max_depth:int ->
  ?max_derivations:int ->
  ?budget:Gql_matcher.Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?selector:selector ->
  ?writer:(write -> unit) ->
  Ast.program ->
  result
(** Each statement is compiled by {!Plan.compile_statement} and its
    node executed before the next statement compiles, so an error
    surfaces after the earlier statements' writes reached [writer].
    [max_depth] bounds recursive motif derivation (default 16) —
    unbounded repetition ([*1..]) is evaluated by the RPQ engine and
    never unrolled, so it is exempt. Derivations are enumerated lazily
    and budget-polled; a pattern with more than [max_derivations]
    (default 4096) of them raises {!Error} — a typed failure instead of
    silent truncation. A pattern whose only derivations lie beyond
    [max_depth] also raises, with a message distinguishing "none within
    depth" from "none exists". A variable holding a graph can also
    serve as a [doc] source of one graph; explicit [docs] entries win
    on name clash. The [budget] is shared by every selection of the
    program — one end-to-end deadline governs the whole run. With
    [metrics] enabled, each FLWR selection runs in a ["flwr"] span
    containing one ["match"] span per (pattern, graph) engine run;
    path-query statements ([find path] / [get subgraph]) run in a
    ["path"] span. *)

val var : result -> string -> Graph.t option
val returned : result -> Graph.t list
(** The graphs of [last] ([[]] when the program ends with no return). *)
