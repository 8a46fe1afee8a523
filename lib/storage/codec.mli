(** Binary serialization of values, tuples and graphs.

    §7 ("Physical Storage of Graph Data") asks how to store heterogeneous
    graphs on disk. This codec is the record format used by {!Store}:
    length-delimited records with varint integers, so small graphs stay
    small and records are skippable without decoding.

    The format is self-contained per graph (no external string table) and
    versioned by a leading byte. *)

val write_uvarint : Buffer.t -> int -> unit
val read_uvarint : string -> int -> int * int
(** [read_uvarint s off] returns the integer and the offset after it;
    exposed for the {!Store} transaction-record payloads. *)

val write_string : Buffer.t -> string -> unit
val read_string : string -> int -> string * int
(** Length-prefixed strings; exposed for the {!Store} view-record
    payloads. *)

val write_value : Buffer.t -> Gql_graph.Value.t -> unit
val read_value : string -> int -> Gql_graph.Value.t * int
(** [read_value s off] returns the value and the offset after it. *)

val write_tuple : Buffer.t -> Gql_graph.Tuple.t -> unit
val read_tuple : string -> int -> Gql_graph.Tuple.t * int

val write_graph : Buffer.t -> Gql_graph.Graph.t -> unit
val read_graph : string -> int -> Gql_graph.Graph.t * int

val graph_to_string : Gql_graph.Graph.t -> string
val graph_of_string : string -> Gql_graph.Graph.t

val write_op : Buffer.t -> Gql_graph.Mutate.op -> unit
val read_op : string -> int -> Gql_graph.Mutate.op * int

val write_ops : Buffer.t -> Gql_graph.Mutate.op list -> unit
val read_ops : string -> int -> Gql_graph.Mutate.op list * int
(** Length-prefixed op sequences — the payload of a transaction-log
    record. *)

exception Corrupt of string

val crc32 : ?crc:int -> ?off:int -> ?len:int -> string -> int
(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]) of the [len] bytes of
    the string at [off], in [0, 2^32); [off] defaults to 0 and [len] to
    the rest of the string.
    [crc] continues a running checksum over concatenated chunks. The
    one CRC of the system: it guards every {!Store} record and header
    slot against torn writes and bit rot, and every wire frame of
    [Gql_exec.Protocol]. Raises [Invalid_argument] when the range is
    not inside the string. *)
