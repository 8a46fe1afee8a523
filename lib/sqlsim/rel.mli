(** A minimal in-memory relational engine — the SQL baseline substrate.

    The paper's experimental comparison runs the Figure 4.2 multi-join
    query on MySQL over two tables V(vid, label) and E(vid1, vid2) with
    B-tree indexes on every field. This module provides exactly that
    storage layer: named tables of typed rows with secondary B-tree
    indexes per column. Being fully in memory it is, if anything, a
    {e generous} stand-in for MySQL — the architectural comparison
    (relational plans lose the global graph view) is what matters. *)

open Gql_graph

type row = Value.t array

type table

type db

val create_db : unit -> db

val create_table : db -> string -> columns:string list -> unit
(** Every column gets a B-tree index, as in the paper's setup. *)

val insert : db -> string -> row -> unit

val table : db -> string -> table
val columns : table -> string list
val column_index : table -> string -> int
val cardinality : table -> int
val row : table -> int -> row
val scan : table -> int Seq.t
(** All row ids. *)

val index_lookup : table -> column:string -> Value.t -> int list
(** Row ids whose column equals the value (via the B-tree index). *)

val index_distinct : table -> column:string -> int
(** Number of distinct values in the column — the selectivity statistic
    a System-R style optimizer uses. *)
