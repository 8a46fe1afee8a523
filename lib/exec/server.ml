module Budget = Gql_matcher.Budget
module Error = Gql_core.Error
module Eval = Gql_core.Eval
module Json = Protocol.Json

type mode =
  | Local of Service.t
  | Routed of Router.t

type t = {
  mode : mode;
  sessions : Session.t;
  max_frame : int;
  log : string -> unit;
  listen_fd : Unix.file_descr;
  addr : string;
  (* connection registry, so [stop] can unblock handler threads
     parked in [read_frame] on idle connections; handler threads are
     counted, not collected — a Thread.t list would grow by one handle
     per connection ever served *)
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  mutable conns : Unix.file_descr list;
  mutable live_handlers : int;
  stopping : bool Atomic.t;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let render_graphs result =
  List.map Gql_graph.Graph.to_string (Eval.returned result)

(* A stale socket file from a crashed server must be unlinked before
   bind, but only when it provably is one: a typo'd --listen pointing
   at a data file must not silently delete it, and a path another
   server is still accepting on must not be stolen out from under it. *)
let claim_unix_path addr sockaddr path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe sockaddr with
          | () -> true
          | exception Unix.Unix_error _ -> false)
    in
    if live then
      Error.raise_
        (Error.Usage
           (Printf.sprintf
              "cannot listen on %s: another server is accepting on it" addr))
    else Unix.unlink path
  | _ ->
    Error.raise_
      (Error.Usage
         (Printf.sprintf
            "cannot listen on %s: path exists and is not a socket (refusing \
             to delete it)"
            addr))

let create ?(max_inflight = 64) ?(max_frame = Protocol.default_max_frame)
    ?(log = fun _ -> ()) mode ~addr =
  Lazy.force Client.ignore_sigpipe;
  let sockaddr = Client.parse_addr addr in
  (match sockaddr with
  | Unix.ADDR_UNIX path -> claim_unix_path addr sockaddr path
  | _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd sockaddr;
     Unix.listen fd 64
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error.raise_
      (Error.Usage
         (Printf.sprintf "cannot listen on %s: %s" addr (Unix.error_message e))));
  {
    mode;
    sessions = Session.create ~max_inflight ();
    max_frame;
    log;
    listen_fd = fd;
    addr;
    c_mutex = Mutex.create ();
    c_cond = Condition.create ();
    conns = [];
    live_handlers = 0;
    stopping = Atomic.make false;
  }

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    t.log (Printf.sprintf "stopping listener on %s" t.addr);
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

(* --- responses -------------------------------------------------------------- *)

let send fd json = Protocol.write_frame fd (Json.to_string json)

let error_response id err =
  Json.Obj
    [
      ("id", Json.Int id);
      ("status", Json.Str (Error.wire_status err));
      ("error", Json.Str (Error.to_string err));
    ]

let ok_response id fields =
  Json.Obj (("id", Json.Int id) :: ("status", Json.Str "ok") :: fields)

(* One response = one frame. A killed or budget-stopped exhaustive query
   can be holding an unbounded pile of partial result graphs; rendering
   them all would produce a frame the peer must reject as oversized (and
   then drop the connection, since the stream cannot be resynchronized).
   [Protocol.query_response_frame] keeps the prefix that fits and
   records the drop in the error field. *)
let send_query t fd head ~render ~same items =
  let frame, dropped =
    Protocol.query_response_frame ~max_frame:t.max_frame head ~render ~same
      items
  in
  if dropped > 0 then
    t.log
      (Printf.sprintf "response truncated: %d graph(s) over the frame limit"
         dropped);
  Protocol.write_encoded fd frame

(* --- local dispatch --------------------------------------------------------- *)

let run_local t svc ~session ~id ~src ~deadline ~wait_watermark =
  (* admission first: an over-cap query is rejected with the typed
     error before anything reaches the Service queue, so the cap
     bounds queued work, not just registered work *)
  (match Session.reserve t.sessions with
  | Ok () -> ()
  | Error why -> Error.raise_ (Error.Usage why));
  let cancel = Budget.token () in
  let after = if wait_watermark then Some (Service.watermark svc) else None in
  let qid =
    match Service.submit svc ?deadline ~cancel ?after src with
    | qid -> qid
    | exception e ->
      Session.release t.sessions;
      raise e
  in
  Session.register t.sessions ~session ~qid ~src ~deadline ~cancel;
  let outcome =
    Fun.protect
      ~finally:(fun () -> Session.finish t.sessions ~qid)
      (fun () -> Service.wait svc qid)
  in
  (* the response head and the graphs it returns, rendered by
     [send_query] *)
  let base status stopped error graphs vars writes =
    ( {
        Protocol.qr_id = id;
        qr_qid = qid;
        qr_status = status;
        qr_stopped = Budget.stop_reason_to_string stopped;
        qr_error = error;
        qr_graphs = [];
        qr_vars = vars;
        qr_writes = writes;
        qr_wall_ms = outcome.Service.o_wall_ms;
        qr_shards_ok = 1;
        qr_shards_failed = [];
      },
      graphs )
  in
  match outcome.Service.o_status with
  | Service.Done result -> (
    match Error.of_stop_reason result.Eval.stopped "query" with
    | None ->
      base "ok" result.Eval.stopped None (Eval.returned result)
        (List.length result.Eval.vars) result.Eval.writes
    | Some err ->
      (* resource stop: typed status, but the partial results still
         travel — the client decides whether truncated is useful *)
      base (Error.wire_status err) result.Eval.stopped
        (Some (Error.to_string err))
        (Eval.returned result)
        (List.length result.Eval.vars) result.Eval.writes)
  | Service.Rejected reason ->
    let err =
      Option.value
        (Error.of_stop_reason reason "query (before start)")
        ~default:(Error.Deadline "query rejected at admission")
    in
    base (Error.wire_status err) reason (Some (Error.to_string err)) [] 0 0
  | Service.Failed err ->
    base (Error.wire_status err) Budget.Exhausted
      (Some (Error.to_string err))
      [] 0 0

let queries_json entries =
  let now = Unix.gettimeofday () in
  Json.List
    (List.map
       (fun e ->
         Json.Obj
           [
             ("qid", Json.Int e.Session.e_qid);
             ("session", Json.Int e.Session.e_session);
             ("age_ms", Json.Float ((now -. e.Session.e_submitted) *. 1000.0));
             ( "deadline",
               match e.Session.e_deadline with
               | Some d -> Json.Float d
               | None -> Json.Null );
             ("query", Json.Str e.Session.e_src);
           ])
       entries)

(* --- routed dispatch -------------------------------------------------------- *)

(* Merge the shards' [show queries] answers, tagging each entry with
   its shard; a dead shard contributes an error marker, not a hang. *)
let routed_show router id =
  let per_shard = Router.broadcast router (Protocol.Show_queries { q_id = id }) in
  let entries =
    List.concat_map
      (fun (addr, r) ->
        match r with
        | Ok json -> (
          match Option.bind (Json.member "queries" json) Json.list with
          | Some qs ->
            List.map
              (fun q ->
                match q with
                | Json.Obj fields ->
                  Json.Obj (("shard", Json.Str addr) :: fields)
                | other -> other)
              qs
          | None -> [])
        | Error msg ->
          [ Json.Obj [ ("shard", Json.Str addr); ("error", Json.Str msg) ] ])
      per_shard
  in
  ok_response id [ ("queries", Json.List entries) ]

let routed_kill router id target =
  let per_shard =
    Router.broadcast router (Protocol.Kill { q_id = id; q_target = target })
  in
  let killed =
    List.exists
      (fun (_, r) ->
        match r with
        | Ok json ->
          Option.value ~default:false
            (Option.bind (Json.member "killed" json) Json.bool)
        | Error _ -> false)
      per_shard
  in
  ok_response id [ ("killed", Json.Bool killed) ]

(* --- the per-connection loop ------------------------------------------------ *)

let dispatch t ~session ~fd req =
  let id = Protocol.request_id req in
  match (req, t.mode) with
  | Protocol.Ping _, Local _ -> send fd (ok_response id [ ("pong", Json.Bool true) ])
  | Protocol.Ping _, Routed router ->
    let alive =
      Router.broadcast router (Protocol.Ping { q_id = id })
      |> List.filter (fun (_, r) -> Result.is_ok r)
      |> List.length
    in
    send fd
      (ok_response id
         [ ("pong", Json.Bool true); ("shards_alive", Json.Int alive) ])
  | Protocol.Query { q_src; q_deadline; q_wait_watermark; _ }, Local svc -> (
    match
      run_local t svc ~session ~id ~src:q_src ~deadline:q_deadline
        ~wait_watermark:q_wait_watermark
    with
    | head, graphs ->
      send_query t fd head ~render:Gql_graph.Graph.add_to_buffer
        ~same:Gql_graph.Graph.prints_as graphs
    | exception Error.E err -> send fd (error_response id err))
  | Protocol.Query { q_src; q_deadline; q_wait_watermark; _ }, Routed router -> (
    match
      Router.query router ?deadline:q_deadline
        ~wait_watermark:q_wait_watermark q_src
    with
    | resp ->
      send_query t fd { resp with Protocol.qr_id = id }
        ~render:Buffer.add_string ~same:String.equal resp.Protocol.qr_graphs
    | exception Error.E err -> send fd (error_response id err))
  | Protocol.Show_queries _, Local _ ->
    send fd
      (ok_response id [ ("queries", queries_json (Session.list t.sessions)) ])
  | Protocol.Show_queries _, Routed router -> send fd (routed_show router id)
  | Protocol.Kill { q_target; _ }, Local _ ->
    let killed = Session.kill t.sessions ~qid:q_target in
    t.log (Printf.sprintf "kill query %d -> %b" q_target killed);
    send fd (ok_response id [ ("killed", Json.Bool killed) ])
  | Protocol.Kill { q_target; _ }, Routed router ->
    send fd (routed_kill router id q_target)
  | Protocol.Shutdown _, mode ->
    t.log "shutdown requested";
    (match mode with
    | Routed router ->
      ignore (Router.broadcast router (Protocol.Shutdown { q_id = id }))
    | Local _ -> ());
    send fd (ok_response id [ ("stopping", Json.Bool true) ]);
    stop t

let handle_conn t fd =
  let session = Session.new_session t.sessions in
  t.log (Printf.sprintf "session %d connected" session);
  let cleanup () =
    Session.finish_session t.sessions ~session;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.log (Printf.sprintf "session %d closed" session);
    locked t.c_mutex (fun () ->
        t.conns <- List.filter (fun fd' -> fd' != fd) t.conns;
        t.live_handlers <- t.live_handlers - 1;
        Condition.broadcast t.c_cond)
  in
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      match Protocol.read_frame ~max_frame:t.max_frame fd with
      | Error Protocol.Torn -> () (* client hung up *)
      | exception Unix.Unix_error _ ->
        (* ECONNRESET and friends: the peer went away, same as a torn
           frame (EINTR is retried inside read_frame, not seen here) *)
        ()
      | Error fe ->
        (* a corrupt or oversized frame desynchronizes the stream: answer
           with the typed error, then drop the connection — there is no
           way to find the next frame boundary *)
        (try
           send fd
             (error_response 0
                (Error.Protocol (Protocol.frame_error_to_string fe)))
         with Unix.Unix_error _ -> ())
      | Ok payload -> (
        let req =
          match Json.parse payload with
          | Error msg -> Result.Error (Error.Protocol ("bad request JSON: " ^ msg))
          | Ok json -> (
            match Protocol.request_of_json json with
            | Ok req -> Ok req
            | Error msg -> Result.Error (Error.Protocol msg))
        in
        match req with
        | Error err ->
          (* a malformed request inside a well-framed payload is
             recoverable: answer and keep the connection *)
          (try send fd (error_response 0 err) with Unix.Unix_error _ -> ());
          loop ()
        | Ok req -> (
          match dispatch t ~session ~fd req with
          | () -> loop ()
          | exception Unix.Unix_error _ -> () (* client went away mid-answer *)
          | exception Error.E err ->
            (try send fd (error_response (Protocol.request_id req) err)
             with Unix.Unix_error _ -> ());
            loop ()))
  in
  Fun.protect ~finally:cleanup loop

let serve_forever t =
  t.log (Printf.sprintf "listening on %s" t.addr);
  let rec accept_loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      locked t.c_mutex (fun () ->
          t.conns <- fd :: t.conns;
          t.live_handlers <- t.live_handlers + 1;
          ignore (Thread.create (fun () -> handle_conn t fd) ()));
      accept_loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      ->
      if Atomic.get t.stopping then () else accept_loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  (* unblock handler threads parked in read_frame, then wait for the
     live-handler count to drain so in-flight answers finish before we
     return *)
  let conns = locked t.c_mutex (fun () -> t.conns) in
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  locked t.c_mutex (fun () ->
      while t.live_handlers > 0 do
        Condition.wait t.c_cond t.c_mutex
      done);
  (match t.mode with
  | Routed router -> Router.close router
  | Local _ -> ());
  t.log "server stopped"
