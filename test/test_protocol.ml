(* The wire codec: frame round-trips (QCheck over arbitrary payloads,
   NUL bytes included), torn/truncated prefixes, the oversized guard,
   header/payload CRC corruption, the minimal JSON, request/response
   round-trips — and one live unix-socket session against a real server
   thread. Mirrors the storage-recovery suite's style: every corruption
   is a typed error, never an exception or a wrong payload. *)

module Protocol = Gql_exec.Protocol
module Json = Protocol.Json
module Error = Gql_core.Error
module Codec = Gql_storage.Codec
module Graph = Gql_graph.Graph
module Tuple = Gql_graph.Tuple
module Value = Gql_graph.Value

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
  let h = "GQW1" ^ u32 (String.length payload) ^ u32 (Codec.crc32 payload) in
  h ^ u32 (Codec.crc32 h) ^ payload

let ref_crc32 ?(crc = 0) s =
  let c = ref (crc lxor 0xFFFFFFFF) in
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

(* a string of up to 4 kB, a range inside it and a running CRC to
   chain from *)
let crc_case =
  QCheck.make
    ~print:(fun (s, off, len, crc) ->
      Printf.sprintf "%d-byte string, off %d, len %d, crc %#x" (String.length s)
        off len crc)
    QCheck.Gen.(
      let* n = int_bound 4096 in
      let* s = string_size ~gen:char (return n) in
      let* off = int_bound n in
      let* len = int_bound (n - off) in
      let+ crc = map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF) (int_bound 0xFFFF) in
      (s, off, len, crc))

let prop_frame_bytes =
  QCheck.Test.make ~name:"frames and CRCs match the per-byte reference" ~count:300
    crc_case
    (fun (payload, off, len, crc) ->
      let sub = String.sub payload off len in
      Codec.crc32 payload = ref_crc32 payload
      && Codec.crc32 ~crc ~off ~len payload = ref_crc32 ~crc sub
      && Codec.crc32 ~crc:(Codec.crc32 ~len:off payload) ~off payload
         = Codec.crc32 payload
      && Protocol.encode payload = ref_frame payload)

(* lengths 0-15 are where the 8-byte loop hands over to the tail loop;
   offsets 0-8 cover every alignment of the block reads *)
let test_crc_short_lengths () =
  let s = String.init 64 (fun i -> Char.chr (((i * 37) + 11) land 0xFF)) in
  for off = 0 to 8 do
    for len = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "off %d len %d" off len)
        (ref_crc32 ~crc:0x1234 (String.sub s off len))
        (Codec.crc32 ~crc:0x1234 ~off ~len s)
    done
  done;
  Alcotest.check_raises "range past the end" (Invalid_argument "Codec.crc32")
    (fun () -> ignore (Codec.crc32 ~off:60 ~len:5 s))

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

(* Damaged string literals. A strict prefix of a literal lacks its
   closing quote; a literal cut inside an escape and closed again ends
   mid-escape (or escapes its own closing quote); a \u escape with one
   of its four digits replaced by a non-hex byte — '_' included, which
   [int_of_string "0x..."] would accept — is malformed. All three must
   be [Error]. Any other single-byte flip may parse or not, but must
   never raise. *)
let prop_json_damaged_strings =
  QCheck.Test.make ~name:"damaged json string literals are errors, never raises"
    ~count:500
    QCheck.(
      triple
        (string_gen Gen.(char_range '\000' '\255'))
        small_nat
        (pair (oneofl [ '_'; 'g'; 'G'; ' '; '"'; '\\'; 'x'; '\000' ]) char))
    (fun (s, k, (non_hex, flip)) ->
      let lit = Json.to_string (Json.Str ("\001" ^ s ^ "\\")) in
      let n = String.length lit in
      let parses t =
        match Json.parse t with
        | Ok _ -> true
        | Error _ -> false
        | exception e ->
          QCheck.Test.fail_reportf "parse %S raised %s" t (Printexc.to_string e)
      in
      (* [lit] is '"', the escape \u0001 at bytes 1-6, the escaped [s],
         then the escape \\ and '"' in its last three bytes *)
      let cut_in_u = 2 + (k mod 5) and cut_in_bs = n - 2 in
      let bad_hex = Bytes.of_string lit in
      Bytes.set bad_hex (3 + (k mod 4)) non_hex;
      let flipped = Bytes.of_string lit in
      Bytes.set flipped (k mod n) flip;
      ignore (parses (Bytes.to_string flipped));
      parses lit
      && (not (parses (String.sub lit 0 (k mod n))))
      && (not (parses (String.sub lit 0 cut_in_u ^ "\"")))
      && (not (parses (String.sub lit 0 cut_in_bs ^ "\"")))
      && not (parses (Bytes.to_string bad_hex)))

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

(* --- the one-pass response writer ------------------------------------------ *)

(* The reference route the writer replaces: keep the graphs that fit
   half the frame budget, note the drop in the error field, then
   encode the JSON document. *)
let ref_fit_frame ~max_frame r =
  let budget = (max_frame / 2) - 4096 in
  let rec take acc bytes = function
    | [] -> (List.rev acc, 0)
    | g :: rest ->
      let bytes = bytes + String.length g + 16 in
      if bytes > budget then (List.rev acc, 1 + List.length rest)
      else take (g :: acc) bytes rest
  in
  let kept, dropped = take [] 0 r.Protocol.qr_graphs in
  if dropped = 0 then r
  else
    let note =
      Printf.sprintf
        "%d graph(s) dropped: response would exceed the %d-byte frame limit"
        dropped max_frame
    in
    {
      r with
      Protocol.qr_graphs = kept;
      qr_error =
        Some (match r.Protocol.qr_error with Some e -> e ^ "; " ^ note | None -> note);
    }

let ref_response_frame ~max_frame r =
  Protocol.encode
    (Json.to_string
       (Protocol.query_response_to_json (ref_fit_frame ~max_frame r)))

let pick st a = a.(Random.State.int st (Array.length a))

let rand_text st =
  String.init (Random.State.int st 12) (fun _ ->
      pick st [| 'a'; 'Z'; '"'; '\\'; '\n'; '\t'; '\001'; '\031'; ' '; '\200'; '\255' |])

let rand_value st =
  match Random.State.int st 6 with
  | 0 -> Value.Str (rand_text st)
  | 1 -> Value.Int (Random.State.int st 2000 - 1000)
  | 2 -> Value.Float (pick st [| 0.0; -0.0; nan; -.nan; infinity; 1.5; -2.25e-7 |])
  | 3 -> Value.Bool (Random.State.bool st)
  | 4 -> Value.Null
  | _ -> Value.Str "C"

let rand_tuple st =
  Tuple.make
    ?tag:(if Random.State.bool st then Some (pick st [| "atom"; "t" |]) else None)
    (List.init (Random.State.int st 3) (fun _ ->
         (pick st [| "label"; "w"; "x" |], rand_value st)))

(* named and unnamed nodes and edges, tagged tuples, every value kind *)
let rand_graph st =
  let b =
    Graph.Builder.create ~directed:(Random.State.bool st)
      ?name:(if Random.State.bool st then Some "G" else None)
      ~tuple:(rand_tuple st) ()
  in
  let n = Random.State.int st 4 in
  for v = 0 to n - 1 do
    ignore
      (Graph.Builder.add_node b
         ?name:(if Random.State.bool st then Some (Printf.sprintf "n%d" v) else None)
         (rand_tuple st))
  done;
  if n > 0 then
    for i = 0 to Random.State.int st 4 - 1 do
      ignore
        (Graph.Builder.add_edge b
           ?name:(if Random.State.bool st then Some (Printf.sprintf "e%d" i) else None)
           ~tuple:(rand_tuple st) (Random.State.int st n) (Random.State.int st n))
    done;
  Graph.Builder.build b

(* Copied tuples from a small pool, so neighbours in a run are often
   equal (physically or not) and sometimes differ only where
   [Tuple.equal] cannot see it: reordered attributes, 0.0 against
   -0.0. *)
let tuple_pool =
  lazy
    [|
      Tuple.make [ ("label", Value.Str "C") ];
      Tuple.make [ ("label", Value.Str "C") ];
      Tuple.make [ ("label", Value.Str "O") ];
      Tuple.make ~tag:"atom" [ ("label", Value.Str "C") ];
      Tuple.make [ ("label", Value.Str "C"); ("w", Value.Int 1) ];
      Tuple.make [ ("w", Value.Int 1); ("label", Value.Str "C") ];
      Tuple.make [ ("x", Value.Float 0.0) ];
      Tuple.make [ ("x", Value.Float (-0.0)) ];
      Tuple.make [ ("x", Value.Float nan) ];
      Tuple.make [ ("s", Value.Str "q\"\\\001") ];
    |]

let template =
  lazy
    (Gql_core.Template.compile
       (Gql_core.Gql.parse_graph_decl
          {|graph { node C.a, C.b; edge f (C.a, C.b); }|}))

(* one compiled template instantiated over data graphs whose nodes a, b
   carry pool tuples: the answers share one skeleton *)
let template_run st =
  let pool = Lazy.force tuple_pool and t = Lazy.force template in
  let prev = ref None in
  List.init (Random.State.int st 12) (fun _ ->
      match !prev with
      | Some g when Random.State.int st 3 = 0 -> g
      | _ ->
        let b = Graph.Builder.create () in
        let a = Graph.Builder.add_node b ~name:"a" (pick st pool) in
        let c = Graph.Builder.add_node b ~name:"b" (pick st pool) in
        ignore (Graph.Builder.add_edge b a c);
        let g = t [ ("C", Gql_core.Template.Pgraph (Graph.Builder.build b)) ] in
        prev := Some g;
        g)

let rand_graphs st =
  if Random.State.bool st then template_run st
  else
    let pool = Array.init (1 + Random.State.int st 4) (fun _ -> rand_graph st) in
    List.init (Random.State.int st 10) (fun _ -> pick st pool)

let rand_head st =
  {
    Protocol.qr_id = Random.State.int st 100;
    qr_qid = Random.State.int st 100 - 1;
    qr_status = pick st [| "ok"; "deadline"; "shard-failure" |];
    qr_stopped = "exhausted";
    qr_error = (if Random.State.bool st then Some (rand_text st) else None);
    qr_graphs = [];
    qr_vars = Random.State.int st 3;
    qr_writes = Random.State.int st 3;
    qr_wall_ms = pick st [| 0.0; 1.25; 12345.678; nan; infinity; -0.0 |];
    qr_shards_ok = Random.State.int st 3;
    qr_shards_failed = (if Random.State.bool st then [ rand_text st ] else []);
  }

(* often small enough to truncate: the budget is max_frame / 2 - 4096 *)
let rand_max_frame st =
  if Random.State.int st 4 = 0 then Protocol.default_max_frame
  else 8192 + Random.State.int st 3000

let writer_case name f =
  QCheck.Test.make ~name ~count:300 QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed |] in
      let head = rand_head st and max_frame = rand_max_frame st in
      let frame, texts, dropped = f st ~max_frame head in
      let r = { head with Protocol.qr_graphs = texts } in
      let kept = (ref_fit_frame ~max_frame r).Protocol.qr_graphs in
      let expected = ref_response_frame ~max_frame r in
      (frame = expected && dropped = List.length texts - List.length kept)
      || QCheck.Test.fail_reportf "seed %d: writer@.%S@.reference@.%S" seed
           frame expected)

let prop_writer_graphs =
  writer_case "graph response writer = reference route (incl. template runs)"
    (fun st ~max_frame head ->
      let graphs = rand_graphs st in
      let frame, dropped =
        Protocol.query_response_frame ~max_frame head ~render:Graph.add_to_buffer
          ~same:Graph.prints_as graphs
      in
      (frame, List.map Graph.to_string graphs, dropped))

let prop_writer_strings =
  writer_case "string response writer = reference route (router path)"
    (fun st ~max_frame head ->
      let pool = Array.init (1 + Random.State.int st 3) (fun _ -> rand_text st ^ rand_text st) in
      let texts =
        List.init (Random.State.int st 40) (fun _ ->
            if Random.State.int st 8 = 0 then String.make (Random.State.int st 3000) 'g'
            else pick st pool)
      in
      let frame, dropped =
        Protocol.query_response_frame ~max_frame head ~render:Buffer.add_string
          ~same:String.equal texts
      in
      (frame, texts, dropped))

(* The cut sits exactly where the reference puts it: at a budget of
   100 bytes, one 84-byte text (plus 16) fits and one 85-byte text does
   not, whether rendered or reused from the previous item. *)
let test_writer_boundary () =
  let max_frame = 8192 + 200 in
  let head = { (rand_head (Random.State.make [| 0 |])) with qr_error = None } in
  List.iter
    (fun lengths ->
      let texts = List.map (fun n -> String.make n 'a') lengths in
      let frame, _ =
        Protocol.query_response_frame ~max_frame head
          ~render:Buffer.add_string ~same:String.equal texts
      in
      Alcotest.(check string)
        (String.concat "," (List.map string_of_int lengths))
        (ref_response_frame ~max_frame { head with Protocol.qr_graphs = texts })
        frame)
    [ [ 84 ]; [ 85 ]; [ 34; 34 ]; [ 34; 35 ]; [ 35; 35 ] ]

let prop_prints_as =
  QCheck.Test.make ~name:"Graph.prints_as implies equal text" ~count:300
    QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed |] in
      let gs = Array.of_list (template_run st @ rand_graphs st) in
      Array.for_all
        (fun a ->
          Array.for_all
            (fun b -> (not (Graph.prints_as a b)) || Graph.to_string a = Graph.to_string b)
            gs)
        gs)

let test_prints_as_skeleton () =
  let t = Lazy.force template and pool = Lazy.force tuple_pool in
  let inst ta tb =
    let b = Graph.Builder.create () in
    let a = Graph.Builder.add_node b ~name:"a" ta in
    let c = Graph.Builder.add_node b ~name:"b" tb in
    ignore (Graph.Builder.add_edge b a c);
    t [ ("C", Gql_core.Template.Pgraph (Graph.Builder.build b)) ]
  in
  let check what expected x y =
    Alcotest.(check bool) what expected (Graph.prints_as x y)
  in
  (* pool.(0) and pool.(1) are equal tuples built separately *)
  check "equal copies" true (inst pool.(0) pool.(2)) (inst pool.(1) pool.(2));
  check "different label" false (inst pool.(0) pool.(2)) (inst pool.(2) pool.(2));
  check "reordered attributes" false (inst pool.(4) pool.(0)) (inst pool.(5) pool.(0));
  check "0.0 against -0.0" false (inst pool.(6) pool.(0)) (inst pool.(7) pool.(0));
  let one_node () =
    let b = Graph.Builder.create () in
    ignore (Graph.Builder.add_node b ~name:"a" pool.(0));
    Graph.Builder.build b
  in
  check "separately built graphs" false (one_node ()) (one_node ())

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
    Alcotest.test_case "crc32 over lengths 0-15 at every alignment" `Quick
      test_crc_short_lengths;
    QCheck_alcotest.to_alcotest prop_json_string;
    QCheck_alcotest.to_alcotest prop_json_damaged_strings;
    QCheck_alcotest.to_alcotest prop_writer_graphs;
    QCheck_alcotest.to_alcotest prop_writer_strings;
    Alcotest.test_case "writer truncates at the reference's boundary" `Quick
      test_writer_boundary;
    QCheck_alcotest.to_alcotest prop_prints_as;
    Alcotest.test_case "prints_as sees the shared skeleton and tuple text" `Quick
      test_prints_as_skeleton;
  ]
