(* The wire codec: frame round-trips (QCheck over arbitrary payloads,
   NUL bytes included), torn/truncated prefixes, the oversized guard,
   header/payload CRC corruption, the minimal JSON, request/response
   round-trips — and one live unix-socket session against a real server
   thread. Mirrors the storage-recovery suite's style: every corruption
   is a typed error, never an exception or a wrong payload. *)

module Protocol = Gql_exec.Protocol
module Json = Protocol.Json
module Error = Gql_core.Error

let frame_error = function
  | Protocol.Torn -> "torn"
  | Protocol.Bad_magic -> "bad-magic"
  | Protocol.Oversized _ -> "oversized"
  | Protocol.Header_crc_mismatch -> "header-crc"
  | Protocol.Payload_crc_mismatch -> "payload-crc"

let decode_exn s =
  match Protocol.decode s with
  | Ok (payload, next) -> (payload, next)
  | Error e -> Alcotest.failf "decode failed: %s" (frame_error e)

(* --- byte-for-byte reference encoders -------------------------------------- *)

(* The straightforward per-byte codec: the optimized one must produce
   exactly these bytes. *)
let ref_frame payload =
  let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xFF)) in
  let h = "GQW1" ^ u32 (String.length payload) ^ u32 (Protocol.crc32 payload) in
  h ^ u32 (Protocol.crc32 h) ^ payload

let ref_crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let ref_json_string s =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let any_string = QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))

let prop_frame_bytes =
  QCheck.Test.make ~name:"frames and CRCs match the per-byte reference" ~count:300
    any_string
    (fun payload ->
      Protocol.crc32 payload = ref_crc32 payload
      && Protocol.encode payload = ref_frame payload)

let prop_json_string =
  QCheck.Test.make ~name:"json strings: reference escaping, exact round-trip"
    ~count:500 any_string
    (fun s ->
      let text = Json.to_string (Json.Str s) in
      text = ref_json_string s && Json.parse text = Ok (Json.Str s))

(* --- framing -------------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"frame round-trip for arbitrary payloads" ~count:500
    QCheck.(string_gen QCheck.Gen.(char_range '\000' '\255'))
    (fun payload ->
      let payload', next = decode_exn (Protocol.encode payload) in
      payload' = payload && next = 16 + String.length payload)

let prop_chained =
  QCheck.Test.make ~name:"two frames decode in sequence" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      let s = Protocol.encode a ^ Protocol.encode b in
      let a', next = decode_exn s in
      let b', next' = decode_exn (String.sub s next (String.length s - next)) in
      a' = a && b' = b && next + next' = String.length s)

let prop_torn_prefix =
  (* every strict prefix of a frame is Torn — never Ok, never a crash *)
  QCheck.Test.make ~name:"every strict prefix is torn" ~count:100
    QCheck.small_string
    (fun payload ->
      let s = Protocol.encode payload in
      List.for_all
        (fun n ->
          match Protocol.decode (String.sub s 0 n) with
          | Error Protocol.Torn -> true
          | _ -> false)
        (List.init (String.length s) Fun.id))

let test_oversized () =
  let s = Protocol.encode (String.make 100 'x') in
  match Protocol.decode ~max_frame:50 s with
  | Error (Protocol.Oversized { len = 100; max = 50 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (frame_error e)
  | Ok _ -> Alcotest.fail "oversized frame decoded"

let test_oversized_header_rejected_before_payload () =
  (* a hostile header claiming 2 GiB must be rejected from the 16
     header bytes alone — no payload needs to exist, no allocation *)
  let huge = Protocol.encode "" in
  let h = Bytes.of_string (String.sub huge 0 16) in
  Bytes.set h 4 '\x7f';
  (* break the length; the header CRC now mismatches, which is the
     right rejection — a corrupted length is indistinguishable from a
     corrupted CRC, and both refuse before trusting the length *)
  match Protocol.decode (Bytes.to_string h) with
  | Error (Protocol.Header_crc_mismatch | Protocol.Oversized _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (frame_error e)
  | Ok _ -> Alcotest.fail "corrupt header decoded"

let test_bad_magic () =
  let s = Protocol.encode "hello" in
  let b = Bytes.of_string s in
  Bytes.set b 0 'X';
  match Protocol.decode (Bytes.to_string b) with
  | Error Protocol.Bad_magic -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (frame_error e)
  | Ok _ -> Alcotest.fail "bad magic decoded"

let prop_corrupt_never_ok =
  (* flip any single byte of a frame: decode must never return Ok with
     a payload different from the original *)
  QCheck.Test.make ~name:"single-byte corruption never yields a wrong payload"
    ~count:300
    QCheck.(pair small_string (pair small_nat char))
    (fun (payload, (pos, c)) ->
      let s = Protocol.encode payload in
      let pos = pos mod String.length s in
      QCheck.assume (s.[pos] <> c);
      let b = Bytes.of_string s in
      Bytes.set b pos c;
      match Protocol.decode (Bytes.to_string b) with
      | Error _ -> true
      | Ok (payload', _) -> payload' = payload)

let test_header_crc () =
  let s = Protocol.encode "payload" in
  let b = Bytes.of_string s in
  (* corrupt the length field: the header CRC must catch it *)
  Bytes.set b 7 (Char.chr (Char.code (Bytes.get b 7) lxor 0x01));
  match Protocol.decode (Bytes.to_string b) with
  | Error Protocol.Header_crc_mismatch -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (frame_error e)
  | Ok _ -> Alcotest.fail "corrupt header decoded"

let test_payload_crc () =
  let s = Protocol.encode "payload" in
  let b = Bytes.of_string s in
  Bytes.set b 18 'X';
  match Protocol.decode (Bytes.to_string b) with
  | Error Protocol.Payload_crc_mismatch -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (frame_error e)
  | Ok _ -> Alcotest.fail "corrupt payload decoded"

(* --- JSON ------------------------------------------------------------------ *)

let rec json_eq a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Float.abs (x -. y) < 1e-9
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, v) (k', v') -> k = k' && json_eq v v')
         xs ys
  | a, b -> a = b

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\"\n\tstring with \\ and \x01 control");
        ("i", Json.Int (-42));
        ("f", Json.Float 3.25);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trip" true (json_eq v v')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed garbage %S" s)
    [ "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "123 456"; "truish"; "" ]

let test_json_depth_bound () =
  (* a frame of nothing but brackets must be a typed parse error, not
     Stack_overflow escaping a server connection thread *)
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match Json.parse (deep 100_000) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pathological nesting parsed");
  (* moderate nesting — far beyond any real protocol document — still
     parses *)
  match Json.parse (deep 100) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth-100 document rejected: %s" msg

(* --- requests and responses ------------------------------------------------ *)

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Protocol.request_of_json (Protocol.request_to_json req) with
      | Ok req' -> Alcotest.(check bool) "request round-trip" true (req = req')
      | Error msg -> Alcotest.failf "request parse failed: %s" msg)
    [
      Protocol.Query
        {
          q_id = 7;
          q_src = "for graph P { node v1; } in doc(\"D\") return graph {}";
          q_deadline = Some 1.5;
          q_wait_watermark = true;
        };
      Protocol.Query
        { q_id = 0; q_src = "x"; q_deadline = None; q_wait_watermark = false };
      Protocol.Show_queries { q_id = 3 };
      Protocol.Kill { q_id = 4; q_target = 12 };
      Protocol.Ping { q_id = 5 };
      Protocol.Shutdown { q_id = 6 };
    ]

let test_response_roundtrip () =
  let r =
    {
      Protocol.qr_id = 3;
      qr_qid = 17;
      qr_status = "shard-failure";
      qr_stopped = "exhausted";
      qr_error = Some "1/2 shards failed: sock: receive timed out";
      qr_graphs = [ "graph g0 {\n  node a;\n}"; "graph g1 {}" ];
      qr_vars = 2;
      qr_writes = 1;
      qr_wall_ms = 12.5;
      qr_shards_ok = 1;
      qr_shards_failed = [ "/tmp/shard1.sock" ];
    }
  in
  match Protocol.query_response_of_json (Protocol.query_response_to_json r) with
  | Ok r' -> Alcotest.(check bool) "response round-trip" true (r = r')
  | Error msg -> Alcotest.failf "response parse failed: %s" msg

let test_wire_status_inverts () =
  List.iter
    (fun err ->
      match Error.of_wire_status (Error.wire_status err) ~msg:"m" with
      | None -> Alcotest.failf "status %s did not invert" (Error.wire_status err)
      | Some err' ->
        Alcotest.(check int)
          "exit code preserved" (Error.exit_code err) (Error.exit_code err'))
    [
      Error.Usage "m";
      Error.Parse { line = 1; col = 2; msg = "m" };
      Error.Eval "m";
      Error.Corrupt "m";
      Error.Deadline "m";
      Error.Protocol "m";
      Error.Unsupported_distributed "m";
      Error.Shard_failure "m";
    ];
  Alcotest.(check bool)
    "unknown status is None" true
    (Error.of_wire_status "no-such-status" ~msg:"m" = None)

(* --- a live unix-socket session -------------------------------------------- *)

let test_server_session () =
  let dir = Filename.temp_file "gql_srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "s.sock" in
  let g =
    Gql_core.Gql.parse_program "graph G { node a <label=\"A\">; };"
    |> List.filter_map (function
         | Gql_core.Ast.Sgraph d -> Some (Gql_core.Motif.to_graph d)
         | _ -> None)
  in
  let svc = Gql_exec.Service.create ~jobs:1 ~docs:[ ("D", g) ] () in
  let server =
    Gql_exec.Server.create (Gql_exec.Server.Local svc) ~addr:sock
  in
  let server_thread =
    Thread.create (fun () -> Gql_exec.Server.serve_forever server) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Gql_exec.Server.stop server;
      Thread.join server_thread;
      Gql_exec.Service.shutdown svc)
    (fun () ->
      let conn = Gql_exec.Client.connect ~timeout:10.0 sock in
      Fun.protect
        ~finally:(fun () -> Gql_exec.Client.close conn)
        (fun () ->
          let pong = Gql_exec.Client.call conn (Protocol.Ping { q_id = 0 }) in
          Alcotest.(check (option string))
            "pong ok" (Some "ok")
            (Option.bind (Json.member "status" pong) Json.str);
          let resp =
            Gql_exec.Client.query conn
              "for graph P { node v1 where label=\"A\"; } in doc(\"D\") \
               return graph R { node x; }"
          in
          Alcotest.(check string) "query ok" "ok" resp.Protocol.qr_status;
          Alcotest.(check int)
            "one graph returned" 1
            (List.length resp.Protocol.qr_graphs);
          let k =
            Gql_exec.Client.call conn
              (Protocol.Kill { q_id = 0; q_target = 9999 })
          in
          Alcotest.(check (option bool))
            "unknown qid not killed" (Some false)
            (Option.bind (Json.member "killed" k) Json.bool);
          (* a malformed request inside a well-framed payload answers a
             typed protocol error and keeps the connection usable *)
          (match
             Gql_exec.Client.call conn (Protocol.Ping { q_id = 0 })
             |> Json.member "status"
           with
          | Some (Json.Str "ok") -> ()
          | _ -> Alcotest.fail "connection unusable after valid traffic");
          (* parse errors travel typed: bad query text -> status "parse" *)
          let bad = Gql_exec.Client.query conn "for nonsense" in
          Alcotest.(check string) "parse status" "parse" bad.Protocol.qr_status;
          (* shutdown drains and stops the server thread *)
          let bye =
            Gql_exec.Client.call conn (Protocol.Shutdown { q_id = 0 })
          in
          Alcotest.(check (option string))
            "shutdown ok" (Some "ok")
            (Option.bind (Json.member "status" bye) Json.str)));
  Thread.join server_thread

(* --- stale frames poison the connection ------------------------------------ *)

let with_tmpdir f =
  let dir = Filename.temp_file "gql_srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  f dir

let test_stale_frame_poisons_connection () =
  with_tmpdir @@ fun dir ->
  let sock = Filename.concat dir "fake.sock" in
  (* a "server" that answers every request with somebody else's id —
     exactly what a link reused after a receive timeout would read *)
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX sock);
  Unix.listen listen_fd 1;
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listen_fd in
        (match Protocol.read_frame fd with
        | Ok _ ->
          Protocol.write_frame fd
            (Json.to_string
               (Json.Obj [ ("id", Json.Int 999); ("status", Json.Str "ok") ]))
        | Error _ -> ());
        Unix.close fd)
      ()
  in
  let conn = Gql_exec.Client.connect ~timeout:10.0 sock in
  Fun.protect
    ~finally:(fun () ->
      Gql_exec.Client.close conn;
      Thread.join server;
      Unix.close listen_fd)
    (fun () ->
      (* the mismatched id is a typed protocol error, never silently
         returned as this request's answer *)
      (match Gql_exec.Client.call conn (Protocol.Ping { q_id = 0 }) with
      | _ -> Alcotest.fail "stale frame accepted as answer"
      | exception Error.E (Error.Protocol _) -> ());
      Alcotest.(check bool)
        "connection poisoned" true
        (Gql_exec.Client.is_broken conn);
      (* and the connection is never reused: the next call fails fast
         with a typed shard failure instead of reading garbage *)
      match Gql_exec.Client.call conn (Protocol.Ping { q_id = 0 }) with
      | _ -> Alcotest.fail "poisoned connection answered"
      | exception Error.E (Error.Shard_failure _) -> ())

(* --- listen-path safety ----------------------------------------------------- *)

let test_listen_path_not_a_socket () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "data.gql" in
  let oc = open_out path in
  output_string oc "graph G { node a; };\n";
  close_out oc;
  let svc = Gql_exec.Service.create ~jobs:1 ~docs:[] () in
  Fun.protect
    ~finally:(fun () -> Gql_exec.Service.shutdown svc)
    (fun () ->
      (match Gql_exec.Server.create (Gql_exec.Server.Local svc) ~addr:path with
      | _ -> Alcotest.fail "server bound over a regular file"
      | exception Error.E (Error.Usage _) -> ());
      Alcotest.(check bool) "file survives" true (Sys.file_exists path);
      Alcotest.(check string)
        "contents intact" "graph G { node a; };\n"
        (In_channel.with_open_bin path In_channel.input_all))

let test_listen_path_not_stolen () =
  with_tmpdir @@ fun dir ->
  let sock = Filename.concat dir "s.sock" in
  let svc = Gql_exec.Service.create ~jobs:1 ~docs:[] () in
  let first = Gql_exec.Server.create (Gql_exec.Server.Local svc) ~addr:sock in
  Fun.protect
    ~finally:(fun () ->
      Gql_exec.Server.stop first;
      Gql_exec.Service.shutdown svc)
    (fun () ->
      (* the first server is accepting on the path (bound + listening);
         a second create must refuse, not silently steal the socket *)
      match Gql_exec.Server.create (Gql_exec.Server.Local svc) ~addr:sock with
      | _ -> Alcotest.fail "second server stole a live socket"
      | exception Error.E (Error.Usage _) -> ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_chained;
    QCheck_alcotest.to_alcotest prop_torn_prefix;
    QCheck_alcotest.to_alcotest prop_corrupt_never_ok;
    Alcotest.test_case "oversized frame rejected" `Quick test_oversized;
    Alcotest.test_case "corrupt length rejected from header alone" `Quick
      test_oversized_header_rejected_before_payload;
    Alcotest.test_case "bad magic rejected" `Quick test_bad_magic;
    Alcotest.test_case "header CRC catches length corruption" `Quick
      test_header_crc;
    Alcotest.test_case "payload CRC catches body corruption" `Quick
      test_payload_crc;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects malformed input" `Quick test_json_errors;
    Alcotest.test_case "json nesting depth is bounded" `Quick
      test_json_depth_bound;
    Alcotest.test_case "stale response frame poisons the connection" `Quick
      test_stale_frame_poisons_connection;
    Alcotest.test_case "listen path that is not a socket is refused" `Quick
      test_listen_path_not_a_socket;
    Alcotest.test_case "live listen socket is not stolen" `Quick
      test_listen_path_not_stolen;
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "query-response round-trip" `Quick
      test_response_roundtrip;
    Alcotest.test_case "wire statuses invert with exit codes" `Quick
      test_wire_status_inverts;
    Alcotest.test_case "unix-socket session end to end" `Quick
      test_server_session;
    QCheck_alcotest.to_alcotest prop_frame_bytes;
    QCheck_alcotest.to_alcotest prop_json_string;
  ]
