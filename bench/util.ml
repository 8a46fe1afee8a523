(* shared helpers for the experiment harness *)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ms s = s *. 1000.0

(* Latency percentile by nearest-rank over a sorted copy — the load
   harness reports p50/p95/p99 cells from this. *)
let percentile p = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let header fmt =
  Printf.ksprintf
    (fun s ->
      print_string ("\n=== " ^ s ^ " ===\n");
      flush stdout)
    fmt

let row fmt =
  Printf.ksprintf
    (fun s ->
      print_string s;
      flush stdout)
    fmt

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* the median wall time of [reps] runs of [f] *)
let median_time reps f =
  let ts = List.sort compare (List.init reps (fun _ -> snd (time f))) in
  List.nth ts (reps / 2)

(* --- verdicts and the JSON trajectory (--json FILE) --------------------- *)

exception Check_failed of string

(* [check ok fmt ...]: an experiment's gate. A failed check ends that
   experiment only; [main] records the verdict, runs the remaining
   experiments and exits 1 at the end. *)
let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then raise (Check_failed msg)) fmt

module Json = Gql_exec.Protocol.Json

(* experiments append (name, summary) pairs as they run; [write_json]
   dumps them, with each experiment's verdict, when --json was given *)
let json_entries : (string * Json.t) list ref = ref []
let emit_json name v = json_entries := (name, v) :: !json_entries

let write_json ~mode ~verdicts file =
  let verdict = function
    | None -> Json.Obj [ ("pass", Json.Bool true) ]
    | Some msg ->
      Json.Obj [ ("pass", Json.Bool false); ("failure", Json.Str msg) ]
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "gql-bench/v1");
        ("mode", Json.Str mode);
        ("experiments", Json.Obj (List.rev !json_entries));
        ( "verdicts",
          Json.Obj (List.map (fun (name, v) -> (name, verdict v)) verdicts) );
      ]
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')
