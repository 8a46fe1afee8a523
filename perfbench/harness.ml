(* The serving benchmark. One run:

     harness --gqlsh PATH --workload NAME --seed N --seconds S --trace 0|1

   generates the workload from the seed in a fresh run directory,
   serves it with [gqlsh serve --jobs 1], drives the timed closed loop
   and checks every response. With [--trace 0] it prints the end-to-end
   metrics; with [--trace 1] it serves the same sequence once more for
   the server-side readings and then replays it in-process with every
   layer's calls timed ({!Replay}), printing the per-layer metrics.
   The last line of stdout is the JSON result. *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit

let print_result ~correct metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct Drive.tally.attempted Drive.tally.failed
    (String.concat ", " (List.map metric metrics))

let mib_of_kb kb = float_of_int kb /. 1024.0
let mib_of_bytes b = float_of_int b /. 1048576.0

(* Every setup starts the server from the pristine inputs; the last
   one's server carries the timed load. *)
let serve ~gqlsh ~n_setups (w : Workload.t) =
  let rec go i times =
    let s, dt = Drive.setup ~gqlsh w in
    Common.log "setup %d: %.3f s" i dt;
    if i < n_setups then begin
      Drive.shutdown s;
      go (i + 1) (dt :: times)
    end
    else (s, dt :: times)
  in
  let s, setup_times = go 1 [] in
  let load = Drive.run_load s w in
  let images = Drive.crash_images w in
  Drive.shutdown s;
  let durable = Drive.durable_txns images in
  let acked = Drive.acked_txns w in
  (load, setup_times, durable, acked)

let end_to_end ~gqlsh (w : Workload.t) =
  let load, setup_times, durable, acked = serve ~gqlsh ~n_setups:w.Workload.setups w in
  let n = List.length load.Drive.read_ms + List.length load.Drive.write_ms in
  Common.log "load: %d requests in %.2f s wall, %.2f s busy; durable %d of %d txns"
    n load.Drive.wall_s load.Drive.busy_s durable acked;
  ( [
      ("qps", float_of_int n /. load.Drive.busy_s, "1/s");
      ("read_p50_ms", Common.quantile 0.5 load.Drive.read_ms, "ms");
      ("read_p95_ms", Common.quantile 0.95 load.Drive.read_ms, "ms");
      ("write_p50_ms", Common.quantile 0.5 load.Drive.write_ms, "ms");
      ("write_p90_ms", Common.quantile 0.90 load.Drive.write_ms, "ms");
      ("setup_s", Common.median setup_times, "s");
      ("rss_peak_mb", mib_of_kb load.Drive.hwm_kb, "MiB");
      ("store_mb", mib_of_bytes (Drive.store_bytes w), "MiB");
    ],
    load )

let per_layer ~gqlsh (w : Workload.t) =
  let load, _, durable, acked = serve ~gqlsh ~n_setups:1 w in
  let n = Array.length w.Workload.load in
  let writes =
    Array.fold_left (fun a r -> if r.Workload.kind = Workload.Write then a + 1 else a) 0 w.Workload.load
  in
  let reopen_ms =
    Common.median
      (List.init 3 (fun _ ->
           let st, dt =
             Common.time (fun () ->
                 List.map (fun (live, _) -> Gql_storage.Store.open_existing live) w.Workload.stores)
           in
           List.iter Gql_storage.Store.abort st;
           Common.ms dt))
  in
  let server =
    [
      ("exec.wire_ms", Common.median load.Drive.wire_ms, "ms");
      ( "exec.rss_kb_per_req",
        float_of_int (load.Drive.rss_end_kb - load.Drive.rss_start_kb) /. float_of_int n,
        "kB" );
      ("storage.durable_frac", float_of_int durable /. float_of_int (max 1 acked), "ratio");
      ( "storage.bytes_per_write",
        float_of_int (Drive.store_bytes w - Drive.pristine_bytes w) /. float_of_int (max 1 writes),
        "B" );
      ("storage.reopen_ms", reopen_ms, "ms");
      ("trace.untraced_ms", load.Drive.busy_s *. 1000.0 /. float_of_int n, "ms");
    ]
  in
  (server @ Replay.run w, load)

let () =
  let gqlsh = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [
      ("--gqlsh", Arg.Set_string gqlsh, "PATH the gqlsh executable");
      ("--workload", Arg.Set_string workload, "NAME ppi_cold | chem_hot | chem_rw");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S timed load length at the parent's speed");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics or the traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness --gqlsh PATH --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workload.names) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) || !gqlsh = "" then begin
    prerr_endline "bad --seconds, --trace or --gqlsh";
    exit 2
  end;
  let gqlsh =
    if Filename.is_relative !gqlsh then Filename.concat (Sys.getcwd ()) !gqlsh else !gqlsh
  in
  (* a terminated run still stops its server (via at_exit) *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let home = Sys.getcwd () in
  let dir = Filename.concat ".bench_run" (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  if not (Sys.file_exists ".bench_run") then Unix.mkdir ".bench_run" 0o755;
  Common.remove_tree dir;
  Unix.mkdir dir 0o755;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Drive.kill_all ();
        Sys.chdir home;
        Common.remove_tree dir)
      (fun () ->
        Sys.chdir dir;
        let w, gen_s =
          Common.time (fun () -> Workload.make !workload ~seed:!seed ~seconds:!seconds)
        in
        Common.log "%s seed %d: %d timed requests generated in %.2f s (%s)" !workload !seed
          (Array.length w.Workload.load) gen_s w.Workload.sizes;
        let metrics, load =
          if !trace = 0 then end_to_end ~gqlsh w else per_layer ~gqlsh w
        in
        (metrics, load))
  in
  let metrics, load = result in
  let probes = load.Drive.probes_ms in
  Printf.printf
    "{\"diagnostics\": {\"host_probe_ms\": %s, \"host_probes\": %d, \"host_steal_frac\": %s, \"load_wall_s\": %s, \"server_read_p50_ms\": %s, \"wire_p50_ms\": %s}}\n"
    (json_number (Common.median probes)) (List.length probes)
    (json_number load.Drive.steal_frac)
    (json_number load.Drive.wall_s)
    (json_number (Common.median load.Drive.server_ms))
    (json_number (Common.median load.Drive.wire_ms));
  print_result ~correct:(Drive.tally.failed = 0) metrics
