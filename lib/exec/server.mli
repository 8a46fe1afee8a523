(** The query server: a socket listener speaking the {!Protocol} wire
    format, one thread per client connection, all queries executed by
    one shared {!Service} pool.

    Two modes share the listener and dispatch loop:
    - {b shard} (default): queries run on the local Service;
    - {b router}: queries scatter-gather through a {!Router} to shard
      servers, and [show queries] / [kill] / [shutdown] broadcast.

    Threads (POSIX, not domains) carry connections: they spend their
    lives blocked in [read_frame] or [Service.wait], so they interleave
    with the Service's worker domains without competing for cores. A
    [kill] or [show queries] arriving on one connection acts on queries
    running for another — that is the point. *)

type mode =
  | Local of Service.t
  | Routed of Router.t

type t

val create :
  ?max_inflight:int ->
  ?max_frame:int ->
  ?log:(string -> unit) ->
  mode ->
  addr:string ->
  t
(** Bind and listen on [addr] (see {!Client.parse_addr}). A stale
    unix-socket file left by a crashed server is unlinked first — but
    only when the path {e is} a socket nobody is accepting on: a path
    holding a regular file (a typo'd [--listen] aimed at a data file)
    or a socket another server still answers on raises
    [Error.E (Usage _)] instead of deleting or stealing it.
    [max_inflight] bounds admitted queries (default 64), reserved
    before anything reaches the Service queue; [log] receives one line
    per lifecycle event (connects, kills, shutdown) — default silent.
    Raises [Error.E (Usage _)] if the address cannot be bound. *)

val serve_forever : t -> unit
(** Accept loop. Returns after a client's [shutdown] request: the
    listener closes (no new connections), in-flight queries drain, live
    connections are told to finish. Also returns on [stop]. *)

val stop : t -> unit
(** Ask {!serve_forever} to return (thread-safe, idempotent) — what the
    [shutdown] request calls internally. *)

val render_graphs : Gql_core.Eval.result -> string list
(** The wire rendering of a result's last returned collection — shared
    with the single-process path in tests asserting router/local
    equality. The server itself never builds this list: a local query's
    response frame is written in one pass by
    {!Protocol.query_response_frame}, which renders the same texts with
    [Gql_graph.Graph.add_to_buffer] and reuses the previous graph's
    text whenever [Gql_graph.Graph.prints_as] holds; a routed query's
    merged texts go through the same writer with [String.equal]. *)
