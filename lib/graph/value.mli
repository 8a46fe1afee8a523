(** Attribute values.

    GraphQL annotates nodes, edges and graphs with tuples of named values
    (Section 3.1 of the paper). Values are dynamically typed scalars; the
    comparison operators used in predicates are defined here with the
    numeric coercions one expects from a query language (an [Int] compares
    with a [Float] numerically). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val compare : t -> t -> int
(** Total order used by indexes and predicate evaluation. Values of
    different kinds are ordered by kind ([Null] < [Bool] < numeric <
    [Str]), except that [Int] and [Float] compare numerically with each
    other. *)

val equal : t -> t -> bool

val hash : t -> int

(** {1 Arithmetic and logic}

    Arithmetic on non-numeric values and logic on non-boolean values
    raise [Type_error]. *)

exception Type_error of string

val add : t -> t -> t
(** Numeric addition; concatenation on strings. *)

val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t

val logical_and : t -> t -> t
val logical_or : t -> t -> t
val logical_not : t -> t

val to_bool : t -> bool
(** Truthiness used by predicate evaluation: [Bool b] is [b]; any other
    value raises [Type_error]. *)

(** {1 Printing and parsing} *)

val pp : Format.formatter -> t -> unit
(** Prints in GraphQL literal syntax: integers and floats bare, strings
    double-quoted with escapes. *)

val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the {!pp} text. *)

val prints_as : t -> t -> bool
(** A sufficient test that two values print the same text: same
    constructor and same payload, floats compared by their bits ([0.0]
    and [-0.0] print differently though {!equal} holds). [false] does
    not imply different text ([Int 1] and [Float 1.0] both print [1]). *)

val of_literal : string -> t
(** Parses an unquoted literal as it appears in the graph text format:
    tries [Int], then [Float], then [Bool], else [Str]. *)
