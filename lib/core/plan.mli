(** Compilation of GraphQL programs into algebra expressions.

    §3.4: "The query can be translated into a recursive algebraic
    expression C = σ_J(ω_{T_{P,C}}(σ_P("DBLP"), {C}))". This module is
    that translation: each statement compiles to one node, which {!pp}
    prints (the EXPLAIN view) and {!Eval.run} executes — there is no
    other compiled form and no other executor. Views compile through
    the same code ({!compile_view}), so their maintainer shares the
    derivation enumeration and the [where] filter ({!admits}).

    FLWR forms compile as:
    - [for P in doc(D) return T]  ⇒  ω_T(σ_P(D))
    - [for P in doc(D) let C := T] ⇒ the recursive expression above:
      a left fold of the composition over the selection's matches,
      rebinding C at each step. *)

open Gql_graph

exception Error of string
(** Compile errors. {!Eval.Error} is the same exception. *)

type select = {
  pname : string;
  patterns : Gql_matcher.Rpq.pattern list;
      (** derivations of the (possibly recursive) pattern: flat core
          plus unbounded-repetition path segments *)
  enum_stopped : Gql_matcher.Budget.stop_reason;
      (** [Exhausted], or the budget stop that cut the enumeration of
          derivations short — [patterns] is then a prefix *)
  exhaustive : bool;
  where : Pred.t option;  (** the FLWR [where] filter, see {!admits} *)
  source : string;  (** a doc or view source, or a variable's name *)
}
(** σ_P(source) *)

type view = {
  name : string;
  materialized : bool;
  def : Ast.flwr;
      (** the defining query, pattern resolved inline: self-contained,
          so it persists and replays without the defining program *)
  sel : select;
  compose : Template.env -> Graph.t;
      (** the return template, compiled once *)
}

type statement =
  | Assign of string * Ast.template  (** [C := T] *)
  | Return of select * Ast.template  (** ω_T(σ_P(D)) *)
  | Fold of string * select * Ast.template
      (** [let C := T]: C := fold-ω_T(σ_P(D), {C}) *)
  | Write of Ast.dml
  | Path of Ast.path_query
      (** [find path] / [get subgraph]: run by the RPQ engine *)
  | Create_view of view
  | Drop_view of string

type t = statement list

type scope = (string * Ast.graph_decl) list
(** Named pattern definitions in program order; the first of a name
    wins. *)

val compile_statement :
  ?max_depth:int ->
  ?max_derivations:int ->
  ?budget:Gql_matcher.Budget.t ->
  scope ->
  Ast.statement ->
  scope * statement option
(** One statement. A named [graph] declaration extends the scope and
    compiles to no node. Derivations are enumerated lazily, polling
    [budget] between them; [max_depth] bounds recursive derivation
    (default 16 — unbounded repetition is never unrolled, so it is
    exempt). Raises {!Error} on unknown names, on more than
    [max_derivations] (default 4096) derivations, and on a pattern with
    no derivation — distinguishing "none within depth" from "none
    exists". *)

val compile_view :
  ?max_depth:int ->
  ?max_derivations:int ->
  ?budget:Gql_matcher.Budget.t ->
  ?scope:scope ->
  Ast.view_def ->
  view
(** A view definition, as {!compile_statement} compiles it. Raises
    {!Error} when the query folds with [let], returns a variable, or
    reads another view. *)

val compile : ?max_depth:int -> ?max_derivations:int -> Ast.program -> t
(** {!compile_statement} over a whole program, for EXPLAIN. *)

val admits : select -> Matched.t -> bool
(** The [where] filter on one match: it sees both [P.v1.attr] and
    [v1.attr] paths. *)

val pp : Format.formatter -> t -> unit
(** One line per statement, in algebraic notation: [σ], [ω],
    [fold-ω]. *)
