(* The untraced side: spawn the shipped [gqlsh serve --jobs 1] on a unix
   socket in the run directory and drive it in a closed loop over one
   connection — send, wait for the full decoded response, check it
   against the generator's expected answer, send the next. *)

module Client = Gql_exec.Client
module Protocol = Gql_exec.Protocol
module Store = Gql_storage.Store
module Error = Gql_core.Error
open Workload

let socket = "./serve.sock"

(* Per-request server-side deadline: a safety net, far above any
   request's expected time; a request that hits it counts as failed. *)
let request_deadline = 30.0

type server = { pid : int; conn : Client.t }

let live_pids : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_pids := List.filter (( <> ) pid) !live_pids

(* Kill and wait for every server still running: the harness must leave
   no process behind, on any exit path. *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live_pids

let () = at_exit kill_all

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
    live_pids := List.filter (( <> ) pid) !live_pids;
    true
  | exception Unix.Unix_error _ -> true

(* Restore the pristine stores, spawn the server and wait until it
   answers a ping. Returns the server and the spawn time. *)
let start ~gqlsh (w : Workload.t) =
  List.iter (fun (live, pristine) -> Common.copy_file pristine live) w.stores;
  if Sys.file_exists socket then Sys.remove socket;
  let args =
    [ gqlsh; "serve"; "--listen"; socket; "--jobs"; "1" ]
    @ List.concat_map (fun d -> [ "--doc"; d ]) w.doc_args
  in
  let out = Unix.openfile "serve.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = Common.now () in
  let pid = Unix.create_process gqlsh (Array.of_list args) Unix.stdin out out in
  Unix.close out;
  live_pids := pid :: !live_pids;
  let rec wait_ready () =
    if exited pid then
      failwith ("gqlsh serve exited during start-up:\n" ^ Common.read_file "serve.log");
    if Common.now () -. t0 > 150.0 then failwith "gqlsh serve did not come up";
    match
      if Sys.file_exists socket then begin
        let c = Client.connect ~timeout:120.0 socket in
        ignore (Client.call c (Protocol.Ping { q_id = 0 }));
        Some c
      end
      else None
    with
    | Some c -> c
    | None | (exception Error.E _) ->
      Unix.sleepf 0.005;
      wait_ready ()
  in
  let conn = wait_ready () in
  ({ pid; conn }, t0)

(* One request: client latency in ms (send to decoded response) and
   whether the answer is right. *)
let call s (r : request) =
  let t0 = Common.now () in
  match Client.query s.conn ~deadline:request_deadline ~wait_watermark:r.wait r.src with
  | resp ->
    let dt = Common.ms (Common.now () -. t0) in
    let ok =
      resp.Protocol.qr_status = "ok"
      && resp.Protocol.qr_error = None
      && resp.Protocol.qr_writes = r.writes
      && List.sort String.compare resp.Protocol.qr_graphs = r.expect
    in
    if not ok then
      Common.log "request failed (status %s, %d graphs, %d writes): %s"
        resp.Protocol.qr_status (List.length resp.Protocol.qr_graphs)
        resp.Protocol.qr_writes r.src;
    (dt, Some resp, ok)
  | exception Error.E e ->
    Common.log "request failed (%s): %s" (Error.to_string e) r.src;
    (Common.ms (Common.now () -. t0), None, false)

let shutdown s =
  (try ignore (Client.call s.conn (Protocol.Shutdown { q_id = 0 }))
   with Error.E _ -> ());
  Client.close s.conn;
  reap s.pid

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let count ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

(* Start the server and run the warm-up pass; setup time runs from the
   spawn to the end of the pass (doc load, index builds, cache fill and,
   on chem_rw, view creation and its first refresh). *)
let setup ~gqlsh w =
  let s, t0 = start ~gqlsh w in
  List.iter
    (fun r ->
      let _, _, ok = call s r in
      count ok)
    w.warmup;
  (s, Common.now () -. t0)

type load = {
  read_ms : float list;
  write_ms : float list;
  wire_ms : float list;  (* read latency minus the server's qr_wall_ms *)
  server_ms : float list;  (* the server's qr_wall_ms of reads *)
  busy_s : float;  (* summed request latency *)
  wall_s : float;
  steal_frac : float;  (* host CPU steal over the load, share of CPU time *)
  rss_start_kb : int;
  rss_end_kb : int;
  hwm_kb : int;
  probes_ms : float list;
}

let rss s = Option.value ~default:0 (Common.proc_status_kb s.pid "VmRSS")

(* The timed closed loop. Between requests, at most once a second, the
   host-speed probe runs while the server sits idle. *)
let run_load s (w : Workload.t) =
  let reads = ref [] and writes = ref [] and wire = ref [] and server = ref [] in
  let busy = ref 0.0 in
  let probes = ref [ Common.probe_ms () ] in
  let rss_start_kb = rss s in
  let cpu0 = Common.cpu_times () in
  let t_start = Common.now () in
  let last_probe = ref t_start in
  Array.iter
    (fun r ->
      let dt, resp, ok = call s r in
      count ok;
      busy := !busy +. dt;
      (match r.kind with
      | Write | Ddl -> writes := dt :: !writes
      | Read | View_read -> (
        reads := dt :: !reads;
        match resp with
        | Some resp ->
          wire := (dt -. resp.Protocol.qr_wall_ms) :: !wire;
          server := resp.Protocol.qr_wall_ms :: !server
        | None -> ()));
      if Common.now () -. !last_probe >= 1.0 then begin
        probes := Common.probe_ms () :: !probes;
        last_probe := Common.now ()
      end)
    w.load;
  let wall_s = Common.now () -. t_start in
  let cpu1 = Common.cpu_times () in
  {
    read_ms = !reads;
    write_ms = !writes;
    wire_ms = !wire;
    server_ms = !server;
    busy_s = !busy /. 1000.0;
    wall_s;
    steal_frac =
      (match (cpu0, cpu1) with
      | Some (t0, st0), Some (t1, st1) when t1 > t0 -> float_of_int (st1 - st0) /. float_of_int (t1 - t0)
      | _ -> 0.0);
    rss_start_kb;
    rss_end_kb = rss s;
    hwm_kb = Option.value ~default:0 (Common.proc_status_kb s.pid "VmHWM");
    probes_ms = !probes;
  }

(* Transaction records acknowledged by the final server: its warm-up
   and the timed load (earlier setups' stores are discarded). Each DML
   statement appends one record. *)
let acked_txns (w : Workload.t) =
  let n rs = List.fold_left (fun a r -> if r.kind = Write then a + r.writes else a) 0 rs in
  n w.warmup + n (Array.to_list w.load)

(* The crash image: copies of the live store files taken after the last
   acknowledgement and before shutdown — the bytes a SIGKILL would leave
   (the OS cache survives a process kill, so the copy sees every write
   the server issued). Reopening a copy replays exactly the committed
   transaction records; a CRC-salvaged tail was never flushed and does
   not count. *)
let crash_images (w : Workload.t) =
  List.map
    (fun (live, _) ->
      let copy = "crash-" ^ live in
      Common.copy_file live copy;
      copy)
    w.stores

let durable_txns copies =
  List.fold_left
    (fun acc path ->
      match Store.open_existing path with
      | st ->
        let n = Store.txn_count st in
        Store.abort st;
        acc + n
      | exception _ -> acc)
    0 copies

let store_bytes (w : Workload.t) =
  List.fold_left (fun acc (live, _) -> acc + Common.file_size live) 0 w.stores

let pristine_bytes (w : Workload.t) =
  List.fold_left (fun acc (_, p) -> acc + Common.file_size p) 0 w.stores
