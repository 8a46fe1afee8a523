module Ast = Gql_core.Ast
module Error = Gql_core.Error

(* A lazily-grown pool of wire connections per shard, shared by every
   front-end connection thread — each slot's mutex keeps one
   request/response exchange from interleaving with another on the same
   socket. Scatter overlaps across shards as before; with [pool] slots
   per shard, up to that many front-end queries now also overlap {e on}
   a shard instead of serializing behind a single link.

   Acquisition is try-lock first (reuse any idle slot — only the first
   slot is connected at boot, the rest dial on first use), falling back
   to a blocking round-robin wait when every slot is busy, so load
   spreads instead of convoying on slot 0.

   A call that fails poisons its slot's connection (Client marks itself
   broken and closes the socket — a merely-slow shard's late response
   must never be read as the next query's answer), so the slot keeps
   the address and reconnects lazily on its next request: one failed
   query degrades one slot once, it does not blacklist the shard
   forever, and the other slots keep serving throughout. *)
type slot = { mutable conn : Client.t option; s_lock : Mutex.t }

type link = {
  l_addr : string;
  slots : slot array;
  rr : int Atomic.t;  (* round-robin cursor for the all-busy fallback *)
}

type t = { links : link array; timeout : float }

let connect ?(timeout = 30.0) ?(pool = 2) addrs =
  if addrs = [] then Error.raise_ (Error.Usage "router needs at least one shard");
  if pool < 1 then Error.raise_ (Error.Usage "router pool must be >= 1");
  {
    links =
      Array.of_list
        (List.map
           (fun a ->
             {
               l_addr = a;
               (* slot 0 dials now — a dead shard at boot is a config
                  error; the rest stay cold until contention needs them *)
               slots =
                 Array.init pool (fun i ->
                     {
                       conn =
                         (if i = 0 then Some (Client.connect ~timeout a)
                          else None);
                       s_lock = Mutex.create ();
                     });
               rr = Atomic.make 0;
             })
           addrs);
    timeout;
  }

let shards t = Array.to_list (Array.map (fun l -> l.l_addr) t.links)

let close t =
  Array.iter
    (fun l ->
      Array.iter
        (fun s ->
          Mutex.lock s.s_lock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock s.s_lock)
            (fun () ->
              Option.iter Client.close s.conn;
              s.conn <- None))
        l.slots)
    t.links

(* Acquire a slot of [link] and run [f] on it (lock held). *)
let with_slot link f =
  let n = Array.length link.slots in
  let rec try_free i =
    if i >= n then None
    else
      let s = link.slots.(i) in
      if Mutex.try_lock s.s_lock then Some s else try_free (i + 1)
  in
  let s =
    match try_free 0 with
    | Some s -> s
    | None ->
      (* every slot busy: queue behind one, rotating so waiters spread *)
      let i = Atomic.fetch_and_add link.rr 1 land max_int mod n in
      let s = link.slots.(i) in
      Mutex.lock s.s_lock;
      s
  in
  Fun.protect ~finally:(fun () -> Mutex.unlock s.s_lock) (fun () -> f s)

(* Must be called with the slot's lock held. *)
let live_conn t link slot =
  match slot.conn with
  | Some c when not (Client.is_broken c) -> Ok c
  | stale -> (
    Option.iter Client.close stale;
    slot.conn <- None;
    match Client.connect ~timeout:t.timeout link.l_addr with
    | c ->
      slot.conn <- Some c;
      Ok c
    | exception Error.E e -> Error (Error.to_string e))

(* Union merge is sound exactly when every statement is an independent
   selection over the (partitioned) collection: each shard contributes
   the matches of its slice and no statement consumes another's output.
   Pattern declarations are pure names — broadcast freely. Everything
   that builds cross-statement state stays single-process for now. *)
let check program =
  let rec go = function
    | [] -> Ok ()
    | Ast.Sgraph _ :: rest -> go rest
    | (Ast.Sflwr { Ast.f_source = src; _ } | Ast.Spath { Ast.q_source = src; _ })
      :: _
      when Ast.view_of_source src <> None ->
      Error
        (Printf.sprintf "read of %s — views live in the serving process, not the shards"
           (Format.asprintf "%a" Ast.pp_source src))
    | Ast.Screate_view v :: _ ->
      Error
        (Printf.sprintf "create view %s — views are maintained by a single writer"
           v.Ast.v_name)
    | Ast.Sdrop_view n :: _ ->
      Error
        (Printf.sprintf "drop view %s — views are maintained by a single writer" n)
    | Ast.Sflwr { Ast.f_body = Ast.Return (Ast.Tgraph _); _ } :: rest -> go rest
    | Ast.Sflwr { Ast.f_body = Ast.Return (Ast.Tvar v); _ } :: _ ->
      Error
        (Printf.sprintf
           "return of variable %S — composition needs cross-shard state" v)
    | Ast.Sflwr { Ast.f_body = Ast.Let (v, _); _ } :: _ ->
      Error (Printf.sprintf "let %s — folds accumulate across shards" v)
    | Ast.Sassign (c, _) :: _ ->
      Error (Printf.sprintf "assignment to %s — composition/join" c)
    | Ast.Sdml _ :: _ -> Error "DML — writes route by key, not scatter-gather"
    | Ast.Spath _ :: _ -> Error "path query — paths can cross partition bounds"
  in
  go program

(* Scatter: one thread per shard (Client connections are synchronous
   and single-owner). Gather never blocks past the receive timeout each
   connection was opened with — a hung shard turns into a typed
   [Shard_failure] result, not a hang. *)
let scatter t (mk_req : int -> Protocol.request) =
  let n = Array.length t.links in
  let out = Array.make n (Error "not run") in
  let worker i =
    let link = t.links.(i) in
    out.(i) <-
      with_slot link (fun slot ->
          match live_conn t link slot with
          | Error msg -> Error msg
          | Ok conn -> (
            match Client.call conn (mk_req i) with
            | json -> Ok json
            | exception Error.E e -> Error (Error.to_string e)
            | exception e -> Error (Printexc.to_string e)))
  in
  let threads = Array.init n (fun i -> Thread.create worker i) in
  Array.iter Thread.join threads;
  out

let broadcast t req =
  let out = scatter t (fun _ -> req) in
  Array.to_list
    (Array.mapi (fun i r -> (t.links.(i).l_addr, r)) out)

let query t ?deadline ?(wait_watermark = false) src =
  (* parse locally first: a malformed query is the client's error and
     should not cost a round trip per shard *)
  let program = Gql_core.Gql.parse_program src in
  (match check program with
  | Ok () -> ()
  | Error why -> Error.raise_ (Error.Unsupported_distributed why));
  let req _ =
    Protocol.Query
      { q_id = 0; q_src = src; q_deadline = deadline; q_wait_watermark = wait_watermark }
  in
  let answers = scatter t req in
  let ok = ref [] and failed = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Ok json -> (
        match Protocol.query_response_of_json json with
        | Ok qr -> ok := (i, qr) :: !ok
        | Error msg ->
          failed :=
            (t.links.(i).l_addr ^ ": bad response: " ^ msg) :: !failed)
      | Error msg -> failed := (t.links.(i).l_addr ^ ": " ^ msg) :: !failed)
    answers;
  let ok = List.rev !ok and failed = List.rev !failed in
  if ok = [] then
    Error.raise_
      (Error.Shard_failure
         (Printf.sprintf "no shard answered: %s" (String.concat "; " failed)));
  (* a shard that ran but errored (parse/eval/deadline) poisons the
     merge with its own status: partial algebra results for a query
     that failed somewhere are not a correct union *)
  let first_error =
    List.find_opt (fun (_, qr) -> qr.Protocol.qr_status <> "ok") ok
  in
  let status, error =
    match first_error with
    | Some (_, qr) -> (qr.Protocol.qr_status, qr.Protocol.qr_error)
    | None ->
      if failed = [] then ("ok", None)
      else
        ( "shard-failure",
          Some
            (Printf.sprintf "%d/%d shards failed: %s" (List.length failed)
               (Array.length t.links)
               (String.concat "; " failed)) )
  in
  {
    Protocol.qr_id = 0;
    qr_qid = -1;
    qr_status = status;
    qr_stopped =
      List.fold_left
        (fun acc (_, qr) -> if qr.Protocol.qr_stopped <> "exhausted" then qr.Protocol.qr_stopped else acc)
        "exhausted" ok;
    qr_error = error;
    qr_graphs = List.concat_map (fun (_, qr) -> qr.Protocol.qr_graphs) ok;
    qr_vars = List.fold_left (fun acc (_, qr) -> acc + qr.Protocol.qr_vars) 0 ok;
    qr_writes =
      List.fold_left (fun acc (_, qr) -> acc + qr.Protocol.qr_writes) 0 ok;
    qr_wall_ms =
      List.fold_left (fun acc (_, qr) -> Float.max acc qr.Protocol.qr_wall_ms) 0.0 ok;
    qr_shards_ok = List.length ok;
    qr_shards_failed = failed;
  }
