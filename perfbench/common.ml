(* Small helpers shared by the harness modules: clocks, order
   statistics, files, and /proc readings of the server process. *)

let now = Unix.gettimeofday
let ms s = s *. 1000.0

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Quantile by linear interpolation between closest ranks, over a
   sorted copy; [nan] on an empty sample. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let copy_file src dst = write_file dst (read_file src)

let file_size path = (Unix.stat path).Unix.st_size

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A [Vm*:  N kB] field of /proc/PID/status, in kB. *)
let proc_status_kb pid field =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = field -> (
             let rest = String.sub line (i + 1) (String.length line - i - 1) in
             match
               String.split_on_char ' ' (String.trim rest)
               |> List.filter (( <> ) "")
             with
             | n :: _ -> int_of_string_opt n
             | [] -> None)
           | _ -> None)

(* Total and steal jiffies from the aggregate line of /proc/stat. *)
let cpu_times () =
  match read_file "/proc/stat" with
  | exception Sys_error _ -> None
  | text -> (
    match String.split_on_char '\n' text with
    | line :: _ when String.length line > 4 && String.sub line 0 4 = "cpu " -> (
      let fields =
        String.split_on_char ' ' line |> List.tl |> List.filter (( <> ) "")
        |> List.filter_map int_of_string_opt
      in
      match fields with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
        Some (List.fold_left ( + ) 0 fields, steal)
      | _ -> None)
    | _ -> None)

(* The host-speed probe: a fixed integer and floating-point kernel whose
   running time tracks the speed this host is giving the harness at the
   moment. Timed between request batches, while the server is idle; it
   is a diagnostic next to the metrics, never folded into one. *)
let probe_kernel () =
  let x = ref 0x2545F491 and acc = ref 0.0 in
  for i = 1 to 3_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    acc := !acc +. (float_of_int (!x lxor i) *. 1e-9)
  done;
  !acc

let probe_ms () =
  let acc, dt = time probe_kernel in
  if Float.is_nan acc then 0.0 else ms dt

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
