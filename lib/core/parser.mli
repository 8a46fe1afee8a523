(** Recursive-descent parser for GraphQL (Appendix 4.A, with the
    chapter's extensions: [as] aliases, disjunction blocks, [export],
    conditional [unify]).

    Tuple field values are parsed as additive expressions (no
    comparisons), which keeps [>] unambiguous as the tuple closer;
    full expressions appear in [where] clauses. *)

exception Error of string * int
(** message and byte offset into the source. Also raised, at the
    offending opener, when parenthesised or unary expressions or nested
    pattern blocks nest deeper than 512 levels (the bound of
    [Protocol.Json.parse]): the stack stays bounded on such input. *)

val program : string -> Ast.program
(** Parse a whole query text (a sequence of statements). *)

val graph : string -> Ast.graph_decl
(** Parse a single [graph ... { ... } [where ...]] declaration —
    used for graph literals and standalone patterns. *)

val expression : string -> Gql_graph.Pred.t

val position : string -> int -> int * int
(** [position src offset] = (line, column), 1-based, for error
    reporting. *)
