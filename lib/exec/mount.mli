(** Doc mounts: the [--doc NAME=FILE] sources of [gqlsh run], [batch]
    and [serve], and the sink that makes the evaluator's writes
    durable in the [.store]-backed ones. *)

open Gql_core

type t

val open_docs :
  ?metrics:Gql_obs.Metrics.t -> string list -> t list * Eval.docs
(** Mounts each [NAME=FILE] spec: a [.store] file is opened read-write
    (its live graphs, by ascending gid, form the collection), any other
    file is read as [.gql] text. [metrics] makes store traffic (page
    reads, pool hits) visible to explain --analyze. Raises
    [Error.E (Usage _)] on a spec without [=]. *)

val store : t -> Gql_storage.Store.t option
(** The backing store of a [.store] mount. *)

val persist : t list -> Eval.write -> unit
(** The [?writer] sink: each write to a store-backed doc is staged in
    its store — an update through {!Gql_storage.Store.adopt_txn} with
    the evaluator's [new_graph], an insert as a graph record, a
    removal as a tombstone, a view event as a view record. A refresh
    of a materialized view is a delta over the list the mount last
    persisted ({!View.encode_delta}); a full record is written when
    there is no such list, or when the deltas since the last full
    record would outweigh it. Staged is not durable: {!close_all}
    commits. *)

val close_all : t list -> unit
(** Closes every store, committing its staged records under one
    superblock swap. *)

val views : t list -> View.t list
(** The views persisted in the mounted stores, each decoded from its
    full record and the delta chain after it. Also seeds the mounts'
    persisted lists, so later refreshes can be logged as deltas. *)
