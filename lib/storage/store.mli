(** A disk-backed collection of graphs, crash-safe.

    The §7 "physical storage" extension: graphs are appended as
    CRC-guarded, length-prefixed {!Codec} records to a log of 4 KiB
    pages behind an LRU {!Buffer_pool}. Page 0 is a dual-slot
    superblock: a commit flushes the data pages first, then writes the
    record count / log tail / sequence number into the alternate slot,
    so a write torn {e anywhere} — mid-record, mid-page, or inside the
    superblock itself — leaves the previous commit fully readable.

    Three record kinds share the log: graphs, transaction records
    (mutation ops and deletion tombstones, see {!append_txn}) and
    view-definition records ({!set_view}). Stores written before the
    learned-statistics records were retired may also hold kind-0xFA
    auxiliary records; opening skips them, so they neither consume a
    graph id nor truncate the log.

    {!open_existing} recovers from a torn tail: it scans at most the
    committed record count, drops everything from the first record that
    fails its bounds or CRC, and commits the repaired header; the
    salvage report is available from {!recovery}.

    The store targets the "large collection of small graphs" database
    category (chemical compounds, DBLP papers); a single large graph is
    simply a one-record store. *)

open Gql_graph

type t

type recovery = {
  salvaged : int;  (** graph records readable after the repair *)
  dropped_records : int;  (** committed count minus salvaged *)
  dropped_bytes : int;  (** log bytes truncated from the tail *)
  salvaged_txns : int;  (** transaction records replayed before the tear *)
}

val create : ?pool_capacity:int -> string -> t
(** Create or truncate a store file. *)

val open_existing : ?pool_capacity:int -> string -> t
(** Reopen, recovering from a torn tail if needed. Raises
    [Codec.Corrupt] on files that never were a committed store: empty
    or header-only files, bad magic, both superblock slots invalid. *)

val recovery : t -> recovery option
(** [Some _] when {!open_existing} had to repair this store. *)

val close : t -> unit
(** Commits (flush + superblock). The handle must not be used
    afterwards. *)

val rollback : t -> unit
(** Discard everything staged since the last commit — graphs, view
    records and the transaction-log tail (pending ops, tombstones) —
    restoring the last committed state. The store stays open. *)

val abort : t -> unit
(** {!rollback} then close {e without} committing — what a crash looks
    like from the outside. Used by the fault-injection tests, where
    {!close} would just crash again on its flush. *)

val flush : t -> unit
(** Commit: write back data pages, fsync, publish the new superblock,
    fsync. Graphs added since the last commit are volatile until this
    (or {!close}) returns. *)

val add_graph : t -> Graph.t -> int
(** Append; returns the graph's id (dense, in insertion order). *)

val n_graphs : t -> int
(** Ids ever allocated, deleted ones included — the valid gid range is
    [0, n_graphs): ids are stable, deletion does not renumber. *)

val is_live : t -> int -> bool
val live_count : t -> int

val get_graph : t -> int -> Graph.t
(** The graph with its pending mutation overlay applied. Decoded once
    and memoized: later calls, and {!iter}, return the same physical
    graph until a write, {!rollback} or {!abort} replaces it. Verifies
    the base record CRC on decoding; raises [Codec.Corrupt] on
    mismatch, [Invalid_argument] on a dead or out-of-range id. *)

val append_txn :
  ?r:int -> t -> gid:int -> Mutate.op list -> Graph.t * Mutate.delta
(** Append a transaction record mutating graph [gid] and return the
    post-mutation graph plus the {!Gql_graph.Mutate.delta} (dirty set
    tracked at radius [r], default 1) for incremental index
    maintenance. The ops are applied to the in-memory overlay
    immediately; like {!add_graph} they are volatile until the next
    {!flush}/{!close}, and any number of staged records commit
    atomically together (group commit — one superblock swap publishes
    them all). Raises [Invalid_argument] if [gid] is not live or an op
    is invalid against the current graph (nothing is logged then). *)

val adopt_txn : t -> gid:int -> post:Graph.t -> Mutate.op list -> unit
(** The write path of a caller that has already applied [ops]: append
    the same transaction record as {!append_txn} and make [post] the
    graph [gid] is read as from now on, without applying the ops again.
    [post] must be [get_graph t gid] after [ops] — for the evaluator,
    the [new_graph] of its write. The ids the ops name are checked
    against the current graph's sizes, counted forward through the
    batch, and [post]'s sizes against the result, in O(ops). Raises
    [Invalid_argument] if [gid] is not live or a check fails; nothing
    is logged then. *)

val remove_graph : t -> int -> unit
(** Append a deletion tombstone. The gid stays allocated but is no
    longer live; other ids are unchanged. *)

val txn_count : t -> int
(** Transaction records applied over this store's lifetime (replayed at
    open + appended since), tombstones included. *)

val durable_txn_count : t -> int
(** The same count as of the last commit — what a crash-reopen would
    replay. [txn_count t - durable_txn_count t] is the staged tail. *)

val pending_ops : t -> int -> Mutate.op list
(** The logged-but-not-compacted mutation overlay of a gid (log order);
    [[]] for untouched graphs. Exposed for tests and introspection. *)

val iter : t -> f:(int -> Graph.t -> unit) -> unit
(** Live graphs only, by ascending gid. *)

val to_list : t -> Graph.t list
(** Live graphs only. *)

val set_view : t -> name:string -> string -> unit
(** Append a view-definition record. View records are keyed by name —
    the newest committed record for a name wins — and ride the same
    CRC/commit/recovery machinery without consuming graph ids. The blob is opaque to the store (the exec
    layer's {!Gql_exec.View} encodes definition text, flags, epoch and
    materialized result graphs in it). Durable after the next
    {!flush}/{!close}; a torn final view record recovers the previous
    definition. Raises [Invalid_argument] on an empty name. *)

val drop_view : t -> string -> bool
(** Append a view-drop record; [false] (and no record) if the name is
    unknown. After a drop, {!views} no longer reports the name even
    across reopen. *)

val view_blob : t -> string -> string option
(** The newest committed-or-pending blob for a view name, if any. *)

val views : t -> (string * string) list
(** All live view records, sorted by name. *)

val verify : t -> int
(** Re-read every committed record — graph, transaction, view, and any
    retired aux record —
    and recheck its CRC against the stored header; returns the record
    count. Raises [Codec.Corrupt] at the first unreadable record. The
    integrity pass behind [gqlsh store --verify]. *)

val pool_stats : t -> Buffer_pool.stats

val pager : t -> Pager.t
(** The underlying pager — exposed for the fault-injection tests
    ({!Pager.set_fault}). *)

val set_metrics : t -> Gql_obs.Metrics.t -> unit
(** Wire the buffer pool and pager to the given metrics: subsequent
    storage traffic counts into [storage.pool_*] and
    [storage.pages_*]. *)
