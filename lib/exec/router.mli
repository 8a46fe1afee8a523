(** Scatter-gather over shard servers.

    Each shard is a [gqlsh serve --partition i/n] process holding the
    disjoint slice of the document collection with positions ≡ i mod n,
    so a selection query sent to every shard touches each graph exactly
    once and the results merge by the algebra's union — plain
    concatenation, no coordination. That merge is only sound for
    queries whose statements are independent selections; {!check}
    rejects anything else with a typed [Unsupported_distributed].

    Failure semantics: a shard that is dead, hung past the receive
    timeout, or answering garbage is {e degraded}, never waited on
    forever — the merged response carries the surviving shards'
    graphs with status ["shard-failure"] and the dead shards' addresses
    in [qr_shards_failed]. Only when {e every} shard fails does
    {!query} raise.

    Each shard is served by a small {e pool} of wire connections
    ([pool] slots, lazily dialed past the first), so up to [pool]
    front-end queries overlap on a shard instead of serializing behind
    one socket. A failed call poisons only its own slot's connection
    (the peer's late response could otherwise be read as a later
    query's answer — see {!Client.call}); that slot reconnects lazily
    on its next request while the other slots keep serving: a shard
    that was slow once costs one degraded response, not permanent
    blacklisting, and a restarted shard rejoins without restarting the
    router. *)

type t

val connect : ?timeout:float -> ?pool:int -> string list -> t
(** Open a connection to each shard address. [timeout] (default 30 s)
    is the per-shard receive timeout — the hung-shard bound. [pool]
    (default 2, must be >= 1) is the connections-per-shard cap; only
    the first is dialed now, the rest on first contended use. Raises
    [Error.E (Usage _)] if any shard is unreachable at startup (a
    router with a dead shard at boot is a config error; death {e after}
    boot is the degradation path). *)

val check : Gql_core.Ast.program -> (unit, string) result
(** Distributability: only pattern declarations and [return]-bodied
    selection statements. Composition ([C := ...], [let]-folds,
    variable-reference templates), DML, path queries, and anything
    touching views — [create view] / [drop view] DDL or reads from a
    [view("...")] source, which live in a single serving process —
    need state that spans shards; [Error] explains which construct. *)

val query :
  t ->
  ?deadline:float ->
  ?wait_watermark:bool ->
  string ->
  Protocol.query_response
(** Parse (raising [Error.E (Parse _)] on bad text — no shard sees a
    malformed query), {!check} (raising [Unsupported_distributed]),
    then scatter to all shards concurrently and merge: graphs
    concatenated in shard order, counters summed, [qr_wall_ms] the
    slowest shard. A shard answering with an error status poisons the
    merged response with that same status (first in shard order).
    Raises [Error.E (Shard_failure _)] only when no shard answered. *)

val broadcast :
  t -> Protocol.request -> (string * (Protocol.Json.t, string) result) list
(** Send the same request to every shard (concurrently), returning
    per-shard address-tagged results — [show queries] aggregation and
    [shutdown] fan-out. Never raises; failures are per-shard [Error]s. *)

val shards : t -> string list

val close : t -> unit
