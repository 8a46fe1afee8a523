(** A small Datalog engine.

    Supports positive rules with comparison built-ins, evaluated
    bottom-up (semi-naive) to fixpoint — enough to express the
    Theorem 4.6 translation of GraphQL into Datalog, including
    recursive rules (paths, reachability). Negation is not supported;
    the translation does not need it. *)

open Gql_graph

type term =
  | Var of string
  | Const of Value.t

type atom = {
  name : string;
  args : term list;
}

type cmp_op = Ceq | Cne | Clt | Cle | Cgt | Cge

type literal =
  | Pos of atom
  | Cmp of cmp_op * term * term
      (** built-in; both sides must be bound when reached
          (left-to-right body evaluation) *)

type rule = {
  head : atom;
  body : literal list;
}

val atom : string -> term list -> atom

type db

val create : unit -> db

val add_fact : db -> string -> Value.t list -> unit
val add_rule : db -> rule -> unit

exception Unsafe_rule of string
(** Raised at evaluation when a head variable is unbound by the body,
    or a comparison is reached with an unbound side. *)

val solve : db -> unit
(** Evaluate all rules to fixpoint (idempotent; re-run after adding
    facts or rules). *)

val query : db -> atom -> Value.t list list
(** All bindings of the atom's argument terms, after {!solve}. Constant
    arguments filter; variables project (repeated variables must agree). *)

val holds : db -> string -> Value.t list -> bool
val n_facts : db -> string -> int
